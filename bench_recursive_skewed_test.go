package prometheus_test

// BenchmarkRecursiveSkewed is the imbalance scenario for nested
// delegation — the workload shape whole-set stealing exists for. A delegate-
// context producer streams a 90/10-skewed stream: 90% of operations land
// on four hot sets that all seed on delegate 1 under the static
// assignment, the rest on cold sets spread across the other delegates.
// Operations block briefly (a stand-in for I/O-bound delegate work), so
// rebalancing shows up in wall clock even on a single-CPU host: without
// stealing, delegate 1 serializes ~90% of the sleeps while its peers
// idle; with stealing, the hot sets migrate to idle delegates at their
// first quiescent boundary (the wave markers provide them) and the
// blocked time overlaps.
//
// The production is wave-throttled — a delegate producer never blocks, so
// an unthrottled stream would just grow the lanes without bounding
// occupancy — which is also the natural shape of a real recursive
// producer that needs back-pressure.
//
// The "steal" variant is WithStealing() as a caller gets it: the trigger's
// two constants, nothing pinned. Read the variants as a ratio, steal over
// nosteal: the numbers are dominated by sleeps whose effective duration
// varies by host. A probe to read with benchstat over many runs, not a gate.

import (
	"testing"
	"time"

	prometheus "repro"
	"repro/internal/workload"
)

func BenchmarkRecursiveSkewed(b *testing.B) {
	// 4 delegates. Under StaticMod (nosteal) set s lives on delegate
	// s%4+1: root set 1 -> delegate 2 (the
	// producer); hot sets -> delegate 1; cold sets -> delegates 3 and 4.
	// Under LeastLoaded the shape co-homes the hot sets itself. 10 waves of
	// 36 operations (runs of 8 per hot set + 4 cold, 90/10 skew): see
	// workload.SkewedRecursive for why the run structure is what opens the
	// rebalancer's window.
	shape := workload.SkewedRecursive{
		Hot:    []uint64{0, 4, 8, 12},
		Cold:   []uint64{2, 6, 3, 7},
		Waves:  10,
		RunLen: 8,
	}
	blockingOp := func(*prometheus.Ctx) { time.Sleep(20 * time.Microsecond) }
	sharedOp := func(uint64, int32) func(*prometheus.Ctx) { return blockingOp }
	run := func(b *testing.B, opts ...prometheus.Option) {
		var steals uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			all := append([]prometheus.Option{prometheus.WithDelegates(4), prometheus.Recursive()}, opts...)
			rt := prometheus.Init(all...)
			w := prometheus.NewWritable(rt, 0)
			b.StartTimer()
			rt.BeginIsolation()
			w.DelegateTo(1, func(c *prometheus.Ctx, _ *int) { shape.Run(c, sharedOp) })
			rt.EndIsolation() // barrier: include completing the backlog
			b.StopTimer()
			steals += rt.Stats().Steals
			rt.Terminate()
		}
		b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
	}
	b.Run("nosteal", func(b *testing.B) { run(b) })
	b.Run("steal", func(b *testing.B) { run(b, prometheus.WithStealing()) })
}
