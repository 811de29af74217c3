// Skewed: a recursive producer with a 90/10-skewed set distribution — the
// workload shape whole-set work stealing exists for, and the public form
// of BenchmarkRecursiveSkewed.
//
// One delegated operation acts as a producer: from its execution context
// it streams delegations where 90% of the operations land on four "hot"
// serialization sets piled onto ONE delegate, while the rest spread across
// the others. Under the static policy the pile-up is the table's (set mod 4
// + 1); under WithStealing, which selects first-touch placement, the shape
// re-piles the hot sets itself before the first wave. Each operation blocks
// briefly (a stand-in for I/O-bound work), so placement shows up directly
// in wall clock: statically, one delegate serializes ~90% of the sleeps
// while its peers idle; with the occupancy-aware rebalancer the hot sets —
// leaf sets: their operations delegate nothing — migrate to idle delegates
// at quiescent boundaries and the blocked time overlaps. Per-set operation
// order — the model's determinism guarantee — is identical either way;
// only placement responds to load.
//
// The production is wave-throttled (workload.SkewedRecursive): a
// delegate-context producer never blocks on a full lane, so each wave ends
// with one marker per hot set and a wait until all markers have run —
// which is also what creates the quiescent boundaries the rebalancer
// migrates at. The program exits non-zero if the stealing run moved no set.
//
//	go run ./examples/skewed
package main

import (
	"fmt"
	"os"
	"time"

	prometheus "repro"
	"repro/internal/workload"
)

const delegates = 4

// Under the static policy for 4 delegates (set s on delegate s%4+1) the hot
// sets all land on delegate 1 and the cold sets on delegates 3 and 4. Set 1
// (the producer's own operation) lands on delegate 2, so neither list may
// contain it.
var shape = workload.SkewedRecursive{
	Hot:    []uint64{0, 4, 8, 12},
	Cold:   []uint64{2, 6, 3, 7},
	Waves:  10,
	RunLen: 8, // consecutive operations per hot set, then one cold op
}

// run executes the workload under the given options and reports wall
// clock plus the scheduling counters that attribute any win.
func run(label string, opts ...prometheus.Option) (time.Duration, prometheus.Stats) {
	all := append([]prometheus.Option{
		prometheus.WithDelegates(delegates),
		prometheus.Recursive(),
	}, opts...)
	rt := prometheus.Init(all...)
	defer rt.Terminate()
	w := prometheus.NewWritable(rt, 0)
	blocking := func(*prometheus.Ctx) { time.Sleep(20 * time.Microsecond) }
	op := func(uint64, int32) func(*prometheus.Ctx) { return blocking }

	start := time.Now()
	rt.BeginIsolation()
	w.DelegateTo(1, func(c *prometheus.Ctx, _ *int) { shape.Run(c, op) })
	rt.EndIsolation() // barrier: the backlog completes inside the timing
	elapsed := time.Since(start)

	st := rt.Stats()
	fmt.Printf("%-10s %8.2f ms   steals=%d spills=%d\n", label, 1e3*elapsed.Seconds(), st.Steals, st.Spills)
	return elapsed, st
}

func main() {
	fmt.Printf("recursive 90/10 skew: %d delegates, %d waves x %d ops (hot sets piled on one delegate)\n\n",
		delegates, shape.Waves, shape.OpsPerWave())
	static, _ := run("static")
	steal, st := run("steal", prometheus.WithStealing())
	fmt.Printf("\nstealing delta: %+.1f%% wall clock\n",
		100*(steal.Seconds()-static.Seconds())/static.Seconds())
	if st.Steals == 0 {
		fmt.Println("FAIL: the stealing run moved no set")
		os.Exit(1)
	}
}
