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
