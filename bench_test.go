package prometheus_test

// Benchmarks regenerating the paper's evaluation, one family per table or
// figure. Each sub-benchmark reports ns/op for one full run of a benchmark
// implementation, so paper-style speedups fall out as ratios of Seq to
// CP/SS times:
//
//	BenchmarkFig4/<app>/{Seq,CP16,SS15}    - Figure 4 (16-context config)
//	BenchmarkFig5a/<app>                   - Figure 5a instrumented SS runs
//	BenchmarkFig5b/<app>/{S,M}             - Figure 5b input scaling
//	BenchmarkFig6/<app>/d<N>               - Figure 6 delegate-count sweep
//	BenchmarkAblation/*                    - design-choice studies
//
// These are the developer's probe, read with standard Go tooling (-bench,
// -benchmem, -count and benchstat), and the one way to regenerate the
// figures' data beyond what the ledger prints: bash bench/run.sh is the
// ledger and the only performance gate, and a traced apps-m run there
// already reports Figure 4's column for the host it runs on, at nproc-1
// delegates (apps.<app>.speedup, apps.hmean_speedup), and Figure 5a's
// isolation share. Inputs are the Small class so `go test -bench=.` stays
// minutes-scale.

import (
	"strconv"
	"sync"
	"testing"

	prometheus "repro"
	"repro/internal/harness"
	"repro/internal/workload"
)

// instCache loads each benchmark input once per (app, size).
var (
	instMu    sync.Mutex
	instCache = map[string]*harness.Instance{}
)

func load(b *testing.B, app harness.App, size workload.SizeClass) *harness.Instance {
	b.Helper()
	instMu.Lock()
	defer instMu.Unlock()
	key := app.Name + "/" + size.String()
	inst, ok := instCache[key]
	if !ok {
		inst = app.Load(size)
		instCache[key] = inst
	}
	return inst
}

// BenchmarkFig4 measures the three implementations of every benchmark at
// the paper's 16-context configuration (barcelona-16): CP with 16 workers,
// SS with 15 delegates + the program context.
func BenchmarkFig4(b *testing.B) {
	for _, app := range harness.Apps {
		app := app
		b.Run(app.Name+"/Seq", func(b *testing.B) {
			inst := load(b, app, workload.Small)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.Seq()
			}
		})
		b.Run(app.Name+"/CP16", func(b *testing.B) {
			inst := load(b, app, workload.Small)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.CP(16)
			}
		})
		b.Run(app.Name+"/SS15", func(b *testing.B) {
			inst := load(b, app, workload.Small)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.SS(15)
			}
		})
	}
}

// BenchmarkFig5a runs the instrumented SS implementations and reports the
// epoch-time breakdown as custom metrics (fractions of total time), the
// data behind Figure 5a.
func BenchmarkFig5a(b *testing.B) {
	for _, app := range harness.Apps {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			inst := load(b, app, workload.Small)
			b.ResetTimer()
			var agg, iso, red, tot float64
			for i := 0; i < b.N; i++ {
				st := inst.SS(15)
				agg += float64(st.Aggregation)
				iso += float64(st.Isolation)
				red += float64(st.Reduction)
				tot += float64(st.Total())
			}
			if tot > 0 {
				b.ReportMetric(100*agg/tot, "%aggregation")
				b.ReportMetric(100*iso/tot, "%isolation")
				b.ReportMetric(100*red/tot, "%reduction")
			}
		})
	}
}

// BenchmarkFig5b measures SS at 15 delegates across input size classes
// (S and M; L is minutes per run).
func BenchmarkFig5b(b *testing.B) {
	for _, app := range harness.Apps {
		app := app
		for _, size := range []workload.SizeClass{workload.Small, workload.Medium} {
			size := size
			b.Run(app.Name+"/"+size.String(), func(b *testing.B) {
				inst := load(b, app, size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inst.SS(15)
				}
			})
		}
	}
}

// BenchmarkFig6 sweeps the delegate count, the data behind Figure 6's
// scaling curves.
func BenchmarkFig6(b *testing.B) {
	for _, app := range harness.Apps {
		app := app
		for _, d := range []int{1, 2, 4, 8, 15} {
			d := d
			b.Run(app.Name+"/d"+strconv.Itoa(d), func(b *testing.B) {
				inst := load(b, app, workload.Small)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inst.SS(d)
				}
			})
		}
	}
}

// BenchmarkAblation covers the design-choice studies: placement (the
// paper's modulus against first touch with stealing) and queue capacity (on
// freqmine, the most skew-prone benchmark) and the kmeans formulation
// comparison.
func BenchmarkAblation(b *testing.B) {
	fm, _ := harness.AppByName("freqmine")
	b.Run("policy/static-mod", func(b *testing.B) {
		inst := load(b, fm, workload.Small)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst.SS(15)
		}
	})
	b.Run("policy/stealing", func(b *testing.B) {
		inst := load(b, fm, workload.Small)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst.SS(15, prometheus.WithStealing())
		}
	})
	for _, cap := range []int{8, 1024, 16384} {
		cap := cap
		b.Run("queue-capacity/"+strconv.Itoa(cap), func(b *testing.B) {
			inst := load(b, fm, workload.Small)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.SS(15, prometheus.QueueCap(cap))
			}
		})
	}
	km, _ := harness.AppByName("kmeans")
	b.Run("kmeans/reduction", func(b *testing.B) {
		inst := load(b, km, workload.Small)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst.SS(15)
		}
	})
	b.Run("kmeans/naive", func(b *testing.B) {
		inst := load(b, km, workload.Small)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst.Variants["naive"](15)
		}
	})
}

// BenchmarkRuntime measures the runtime primitives around a delegation:
// the epoch transition and the delegate-then-reclaim round trip (the
// delegation itself is BenchmarkDelegateOverhead).
func BenchmarkRuntime(b *testing.B) {
	b.Run("epoch-transition", func(b *testing.B) {
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.BeginIsolation()
			rt.EndIsolation()
		}
	})
	b.Run("sync-roundtrip", func(b *testing.B) {
		rt := prometheus.Init(prometheus.WithDelegates(4))
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
			w.Call(func(p *int) {})
		}
		b.StopTimer()
		rt.EndIsolation()
	})
}
