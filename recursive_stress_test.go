package prometheus_test

// Determinism stress for the recursive-delegation engine, in the shapes
// the paper names as recursive delegation's motivating workloads (§4):
// quicksort (divide-and-conquer over a mutable slice) and FPM-style
// streaming (a root operation fanning item streams into per-group sets,
// which delegate a second level of work). The engine's contract is that
// per-set operation order equals the producing context's program order —
// independent of scheduling, lane occupancy, and the ring/spill boundary —
// so every run must produce byte-identical per-set logs. Each shape runs
// >= 6 times, in the default-ring configuration and in a tiny-ring
// configuration that forces the lane-overflow spill path (asserted via
// Stats.Spills where overflow is structurally guaranteed), with Checked
// mode enforcing the one-producer-per-set discipline throughout. The CI
// recursive-stress job repeats this file under -race.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	prometheus "repro"
	"repro/internal/workload"
)

// spinSink defeats dead-code elimination of the skewed stress's busy work.
var spinSink atomic.Int32

// qsNode recursively sorts data[lo:hi], recording one structure line per
// tree node into the reducible map keyed by the node's deterministic id
// (root 1, children 2*id and 2*id+1 — the recursion tree is a function of
// the input alone, so ids are stable across runs). Child ranges are
// delegated to serialization sets named by the child ids: each set's sole
// producer is the parent node's executing context.
func qsNode(c *prometheus.Ctx, rec *prometheus.Reducible[map[uint64]string],
	data []int32, id uint64, lo, hi int) {
	const cutoff = 64
	slice := data[lo:hi]
	if hi-lo < cutoff || id > 1<<55 {
		sort.Slice(slice, func(i, j int) bool { return slice[i] < slice[j] })
		rec.Update(c, func(m *map[uint64]string) {
			(*m)[id] = fmt.Sprintf("leaf %d:%d", lo, hi)
		})
		return
	}
	pivot := slice[len(slice)/2]
	i, j := 0, len(slice)-1
	for i <= j {
		for slice[i] < pivot {
			i++
		}
		for slice[j] > pivot {
			j--
		}
		if i <= j {
			slice[i], slice[j] = slice[j], slice[i]
			i++
			j--
		}
	}
	mid := lo + i
	rec.Update(c, func(m *map[uint64]string) {
		(*m)[id] = fmt.Sprintf("node %d:%d pivot %d split %d", lo, hi, pivot, mid)
	})
	left, right := 2*id, 2*id+1
	c.Delegate(left, func(c2 *prometheus.Ctx) { qsNode(c2, rec, data, left, lo, lo+j+1) })
	c.Delegate(right, func(c2 *prometheus.Ctx) { qsNode(c2, rec, data, right, mid, hi) })
}

// stealingOpts forces the recursive whole-set rebalancer on with an eager
// threshold, the shape the stealing stress variants run under.
func stealingOpts() []prometheus.Option {
	return []prometheus.Option{
		prometheus.WithPolicy(prometheus.LeastLoaded),
		prometheus.WithStealing(),
		prometheus.StealAt(1),
	}
}

// quicksortRun executes one full recursive quicksort and returns a
// canonical string of the recursion structure plus the sorted output.
func quicksortRun(t *testing.T, queueCap int, extra ...prometheus.Option) string {
	t.Helper()
	opts := append([]prometheus.Option{prometheus.WithDelegates(4), prometheus.Recursive(),
		prometheus.Checked(), prometheus.WithQueueCapacity(queueCap)}, extra...)
	rt := prometheus.Init(opts...)
	defer rt.Terminate()
	const n = 4096
	rng := rand.New(rand.NewSource(7))
	data := make([]int32, n)
	for i := range data {
		data[i] = int32(rng.Intn(1 << 20))
	}
	rec := prometheus.NewReducible(rt,
		func() map[uint64]string { return map[uint64]string{} },
		func(dst, src *map[uint64]string) {
			for k, v := range *src {
				(*dst)[k] = v
			}
		})
	w := prometheus.NewWritable(rt, data)
	rt.BeginIsolation()
	w.Delegate(func(c *prometheus.Ctx, d *[]int32) { qsNode(c, rec, *d, 1, 0, len(*d)) })
	rt.EndIsolation()
	m := *rec.Result()
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ""
	for _, id := range ids {
		out += fmt.Sprintf("%d=%s\n", id, m[id])
	}
	if !sort.SliceIsSorted(data, func(i, j int) bool { return data[i] < data[j] }) {
		t.Fatal("quicksort output not sorted")
	}
	return out + fmt.Sprint(data)
}

func TestRecursiveQuicksortDeterminism(t *testing.T) {
	// queueCap 0 is the default 256-slot ring; 8 keeps lanes tiny so bursts
	// of sibling delegations overflow into the spill path mid-recursion.
	for _, queueCap := range []int{0, 8} {
		first := quicksortRun(t, queueCap)
		for run := 1; run < 6; run++ {
			if got := quicksortRun(t, queueCap); got != first {
				t.Fatalf("queueCap=%d: run %d diverged from run 0:\n--- run0\n%.400s\n--- run%d\n%.400s",
					queueCap, run, first, run, got)
			}
		}
	}
}

// fpmRun executes one FPM-shaped epoch: a root operation streams items
// round-robin into per-group serialization sets (first level), and each
// group operation periodically delegates a second-level operation to its
// group's conditional set. Per-set logs must replay the producer's program
// order exactly. Returns the canonical log string and the run's Stats.
func fpmRun(t *testing.T, queueCap int, extra ...prometheus.Option) (string, prometheus.Stats) {
	t.Helper()
	opts := append([]prometheus.Option{prometheus.WithDelegates(3), prometheus.Recursive(),
		prometheus.Checked(), prometheus.WithQueueCapacity(queueCap)}, extra...)
	rt := prometheus.Init(opts...)
	defer rt.Terminate()
	const (
		groups = 8
		items  = 2000
	)
	logs := make([][]int32, groups)  // first-level per-set logs
	logs2 := make([][]int32, groups) // second-level per-set logs
	w := prometheus.NewWritable(rt, 0)
	rt.BeginIsolation()
	w.Delegate(func(c *prometheus.Ctx, _ *int) {
		for i := 0; i < items; i++ {
			i := i
			g := i % groups
			c.Delegate(uint64(100+g), func(c2 *prometheus.Ctx) {
				logs[g] = append(logs[g], int32(i))
				if i%7 == 0 {
					c2.Delegate(uint64(200+g), func(*prometheus.Ctx) {
						logs2[g] = append(logs2[g], int32(i))
					})
				}
			})
		}
	})
	rt.EndIsolation()
	return fmt.Sprint(logs, logs2), rt.Stats()
}

// TestRecursiveStealingQuicksortDeterminism: the quicksort shape with the
// whole-set rebalancer forced on (eager threshold, default and tiny
// lanes). Placement may now change run to run AND mid-epoch; the recursion
// structure and per-set op order must not.
func TestRecursiveStealingQuicksortDeterminism(t *testing.T) {
	for _, queueCap := range []int{0, 8} {
		first := quicksortRun(t, queueCap, stealingOpts()...)
		if want := quicksortRun(t, queueCap); want != first {
			t.Fatalf("queueCap=%d: stealing run diverged from non-stealing run", queueCap)
		}
		for run := 1; run < 6; run++ {
			if got := quicksortRun(t, queueCap, stealingOpts()...); got != first {
				t.Fatalf("queueCap=%d: stealing run %d diverged from run 0:\n--- run0\n%.400s\n--- run%d\n%.400s",
					queueCap, run, first, run, got)
			}
		}
	}
}

// TestRecursiveStealingFPMDeterminism: the FPM shape under stealing with
// tiny lanes (forced spills) — per-set logs must still replay program
// order exactly whatever the rebalancer does. On this shape the group sets
// are themselves producers (group ops delegate second-level work), so once
// one has delegated it is pinned on its owner and only leaf sets move —
// few or zero handoffs here is the leaf-only rule at work; the skewed
// stress below is the shape that asserts handoffs fire.
func TestRecursiveStealingFPMDeterminism(t *testing.T) {
	var want string
	{
		logs := make([][]int32, 8)
		logs2 := make([][]int32, 8)
		for i := 0; i < 2000; i++ {
			g := i % 8
			logs[g] = append(logs[g], int32(i))
			if i%7 == 0 {
				logs2[g] = append(logs2[g], int32(i))
			}
		}
		want = fmt.Sprint(logs, logs2)
	}
	var steals uint64
	for _, queueCap := range []int{0, 4} {
		for run := 0; run < 6; run++ {
			got, st := fpmRun(t, queueCap, stealingOpts()...)
			if got != want {
				t.Fatalf("queueCap=%d run %d: per-set op order diverged from program order under stealing", queueCap, run)
			}
			steals += st.Steals
		}
	}
	t.Logf("fpm stealing runs performed %d whole-set handoffs total", steals)
}

// TestRecursiveStealingSkewedDeterminism is the shape the rebalancer
// exists for — a delegate-context producer streams a 90/10-skewed workload
// (workload.SkewedRecursive) whose hot sets all start on one delegate — and
// the test that proves steals actually fire while per-set op order stays
// byte-identical across runs. Wave throttling (marker waits between waves)
// creates the quiescent boundaries the protocol migrates at; the spin in
// each operation keeps the victim observably occupied when the next
// delegation routes.
func TestRecursiveStealingSkewedDeterminism(t *testing.T) {
	// Delegates=4: the root set is first-touched onto delegate 1 (the
	// producer); the shape parks the cold sets {2,6} on delegates 2 and 3
	// while it homes the hot sets {0,4,8}, so all three start on delegate 4.
	shape := workload.SkewedRecursive{
		Hot:    []uint64{0, 4, 8},
		Cold:   []uint64{2, 6},
		Waves:  20,
		RunLen: 3,
	}
	run := func() (string, prometheus.Stats) {
		opts := append([]prometheus.Option{prometheus.WithDelegates(4), prometheus.Recursive(),
			prometheus.Checked(), prometheus.WithQueueCapacity(64)}, stealingOpts()...)
		rt := prometheus.Init(opts...)
		defer rt.Terminate()
		// Indexed by set id: concurrent operations of different sets touch
		// disjoint slots (a shared map header would race).
		var logs [9][]int32
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		w.DelegateTo(1, func(c *prometheus.Ctx, _ *int) {
			shape.Run(c, func(set uint64, seq int32) func(*prometheus.Ctx) {
				return func(*prometheus.Ctx) {
					logs[set] = append(logs[set], seq)
					spin := int32(0)
					for i := int32(0); i < 50000; i++ {
						spin += i
					}
					spinSink.Add(spin)
				}
			})
		})
		rt.EndIsolation()
		return fmt.Sprint(logs[0], logs[4], logs[8], logs[2], logs[6]), rt.Stats()
	}

	first, st0 := run()
	if st0.Steals == 0 {
		t.Fatal("skewed stealing run performed no whole-set handoffs")
	}
	t.Logf("run 0: %d steals", st0.Steals)
	for run2 := 1; run2 < 6; run2++ {
		got, st := run()
		if got != first {
			t.Fatalf("run %d: per-set op order diverged under stealing\n got: %.300s\nwant: %.300s", run2, got, first)
		}
		if st.Steals == 0 {
			t.Fatalf("run %d performed no whole-set handoffs", run2)
		}
	}
}

func TestRecursiveFPMStreamDeterminism(t *testing.T) {
	// Expected logs are pure program order: group g sees g, g+8, g+16, ...
	// and its conditional set the i%7==0 subsequence of that.
	var want string
	{
		logs := make([][]int32, 8)
		logs2 := make([][]int32, 8)
		for i := 0; i < 2000; i++ {
			g := i % 8
			logs[g] = append(logs[g], int32(i))
			if i%7 == 0 {
				logs2[g] = append(logs2[g], int32(i))
			}
		}
		want = fmt.Sprint(logs, logs2)
	}
	for _, queueCap := range []int{0, 4} {
		for run := 0; run < 6; run++ {
			got, st := fpmRun(t, queueCap)
			if got != want {
				t.Fatalf("queueCap=%d run %d: per-set op order diverged from program order", queueCap, run)
			}
			// With 3 delegates the root operation's context owns groups 2
			// and 5, so ~500 first-level delegations are self-delegations
			// that cannot drain until the root returns: with 4-slot rings
			// the spill path is structurally guaranteed to engage.
			if queueCap == 4 && st.Spills == 0 {
				t.Fatalf("run %d: tiny lanes never spilled — spill path not exercised", run)
			}
			if queueCap == 0 && run == 0 && st.Spills > 0 {
				t.Logf("default rings spilled %d (allowed, informational)", st.Spills)
			}
		}
	}
}
