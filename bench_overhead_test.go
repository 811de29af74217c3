package prometheus_test

// BenchmarkDelegateOverhead isolates the per-operation cost of the
// delegation hot path through the public wrapper API — the number behind
// the paper's overhead argument (§5): delegation must stay cheap enough
// that serialization sets beat lock-based pipelines. A developer's probe:
// compare two builds with -count and benchstat; the ledger and the only
// performance gate is bash bench/run.sh. Run with -benchmem; the
// unchecked, untraced paths are required to report 0 allocs/op, which
// alloc_test.go enforces exactly.

import (
	"fmt"
	"testing"

	prometheus "repro"
)

func BenchmarkDelegateOverhead(b *testing.B) {
	b.Run("writable", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
	b.Run("writable-spread-4", func(b *testing.B) {
		// Round-robins four wrappers, so consecutive delegations hit
		// different delegates.
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		ws := make([]*prometheus.Writable[int], 4)
		for i := range ws {
			ws[i] = prometheus.NewWritable(rt, 0)
		}
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws[i%4].Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
	b.Run("reducible", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		r := prometheus.NewReducible(rt,
			func() int { return 0 },
			func(dst, src *int) { *dst += *src })
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Delegate(1, func(v *int) { *v++ })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
	b.Run("readonly", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		r := prometheus.NewReadOnly(rt, 42)
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Delegate(1, func(c *prometheus.Ctx, p *int) { _ = *p })
		}
		b.StopTimer()
		rt.EndIsolation()
	})
}

// BenchmarkEpochTiny times the barrier's idle path: an isolation epoch of 8
// or 64 no-op Writable.Delegate calls, round-robin over one wrapper per
// delegate, closed by EndIsolation, on one runtime per sub-benchmark. The
// epoch ends well inside the barrier's patient start, so what it measures
// is the delegates' wake-up, spin and park and the program context's wait
// on their markers — at 4 delegates with more delegates than CPUs on a
// small host. A probe for changes to that path, read over alternating runs.
func BenchmarkEpochTiny(b *testing.B) {
	noop := func(*prometheus.Ctx, *int) {}
	for _, delegates := range []int{1, 4} {
		for _, ops := range []int{8, 64} {
			b.Run(fmt.Sprintf("delegates=%d/ops=%d", delegates, ops), func(b *testing.B) {
				rt := prometheus.Init(prometheus.WithDelegates(delegates))
				defer rt.Terminate()
				ws := make([]*prometheus.Writable[int], delegates)
				for i := range ws {
					ws[i] = prometheus.NewWritable(rt, 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt.BeginIsolation()
					for k := 0; k < ops; k++ {
						ws[k%delegates].Delegate(noop)
					}
					rt.EndIsolation()
				}
			})
		}
	}
}
