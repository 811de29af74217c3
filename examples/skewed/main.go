// Skewed: a recursive producer with a 90/10-skewed set distribution — the
// workload shape whole-set work stealing exists for, and the public form
// of the benchmark suite's A6 ablation.
//
// One delegated operation acts as a producer: from its execution context
// it streams delegations where 90% of the operations land on four "hot"
// serialization sets that the static policy (set mod 4 + 1) co-homes on ONE
// delegate, while the rest spread across the others. Each operation blocks
// briefly (a stand-in for I/O-bound work), so placement shows up directly
// in wall clock: statically, one delegate serializes ~90% of the sleeps
// while its peers idle; with the occupancy-aware rebalancer (WithStealing)
// the hot sets migrate to idle delegates at their first quiescent boundary
// and the blocked time overlaps. Per-set operation order — the model's determinism guarantee —
// is identical either way; only placement responds to load.
//
// The production is wave-throttled: a delegate-context producer never
// blocks on a full lane (that is what keeps self-delegation and
// delegation cycles deadlock-free), so an unthrottled stream would grow
// the lanes without bounding occupancy. Each wave ends with one marker
// operation per hot set and a wait until all markers have run — which is
// also what creates the quiescent boundaries the rebalancer migrates at.
//
//	go run ./examples/skewed
package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	prometheus "repro"
)

const (
	delegates = 4
	waves     = 10
	runLen    = 8 // consecutive operations per hot set, then one cold op
)

// Under the static policy for 4 delegates (set s on delegate s%4+1): sets
// 0,4,8,12 all land on delegate 1 — the pile-up — while the cold sets
// spread over delegates 3 and 4. Set 1 (the producer's own operation)
// lands on delegate 2, so neither list may contain it.
var (
	hotSets  = []uint64{0, 4, 8, 12}
	coldSets = []uint64{2, 6, 3, 7}
)

// produce streams the skewed waves from inside the producer's context.
func produce(c *prometheus.Ctx) {
	var done atomic.Int64
	opsPerWave := len(hotSets) * (runLen + 1)
	blocking := func(*prometheus.Ctx) { time.Sleep(20 * time.Microsecond) }
	for wave := 0; wave < waves; wave++ {
		for k := 0; k < opsPerWave; k++ {
			run := k / (runLen + 1)
			set := hotSets[run%len(hotSets)]
			if k%(runLen+1) == runLen {
				set = coldSets[run%len(coldSets)]
			}
			c.Delegate(set, blocking)
		}
		markers := int64(0)
		for _, h := range hotSets {
			c.Delegate(h, func(*prometheus.Ctx) { done.Add(1) })
			markers++
		}
		for done.Load() < markers {
			runtime.Gosched()
		}
		done.Store(0)
	}
}

// run executes the workload under the given options and reports wall
// clock plus the scheduling counters that attribute any win.
func run(label string, opts ...prometheus.Option) time.Duration {
	all := append([]prometheus.Option{
		prometheus.WithDelegates(delegates),
		prometheus.Recursive(),
	}, opts...)
	rt := prometheus.Init(all...)
	defer rt.Terminate()
	w := prometheus.NewWritable(rt, 0)

	start := time.Now()
	rt.BeginIsolation()
	w.DelegateTo(1, func(c *prometheus.Ctx, _ *int) { produce(c) })
	rt.EndIsolation() // barrier: the backlog completes inside the timing
	elapsed := time.Since(start)

	st := rt.Stats()
	fmt.Printf("%-10s %8.2f ms   steals=%d forced-evacs=%d outbound-vetoes=%d spills=%d\n",
		label, 1e3*elapsed.Seconds(),
		st.Steals, st.ForcedEvacs, st.OutboundVetoes, st.Spills)
	return elapsed
}

func main() {
	fmt.Printf("recursive 90/10 skew: %d delegates, %d waves x %d ops (hot sets co-homed on delegate 1)\n\n",
		delegates, waves, len(hotSets)*(runLen+1))
	static := run("static")
	steal := run("steal", prometheus.WithStealing())
	fmt.Printf("\nstealing delta: %+.1f%% wall clock\n",
		100*(steal.Seconds()-static.Seconds())/static.Seconds())
}
