package prometheus

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// The chaos suite drives injected panics through every configuration and
// asserts the three containment guarantees end to end: the process
// survives and every barrier closes, the poisoning point is deterministic
// across repeated runs, and sets that did not fault execute exactly what
// they execute in a fault-free run.

// chaosModes is the lane width × placement matrix.
var chaosModes = []struct {
	name string
	opts []Option
}{
	{"flat-static", []Option{WithDelegates(4)}},
	{"flat-nosteal", []Option{WithDelegates(4), WithPolicy(LeastLoaded)}},
	{"flat-steal", []Option{WithDelegates(4), WithPolicy(LeastLoaded), WithStealing(), StealAt(2)}},
	{"flat-steal-unpinned", []Option{WithDelegates(4), WithStealing()}}, // what internal/serve runs
	{"rec-static", []Option{WithDelegates(4), Recursive()}},
	{"rec-nosteal", []Option{WithDelegates(4), Recursive(), WithPolicy(LeastLoaded)}},
	{"rec-steal", []Option{WithDelegates(4), Recursive(), WithPolicy(LeastLoaded), WithStealing(), StealAt(2)}},
}

// withInjector installs a chaos hook through the internal Config knob.
func withInjector(in *chaos.Injector) Option {
	hook := in.Hook()
	return func(c *core.Config) { c.FaultInjector = hook }
}

const (
	chaosSets     = 8   // leaf sets 100..107
	chaosOps      = 40  // delegations per set per epoch
	chaosHotSet   = 100 // the set the deterministic fault targets
	chaosFaultPos = 13  // 1-based op position that faults
)

// runSkewed runs the skewed-leaves shape — chaosSets independent sets,
// each receiving chaosOps delegations that append their index to the
// set's log — and returns the per-set logs.
func runSkewed(t *testing.T, opts []Option) map[uint64][]uint64 {
	t.Helper()
	rt := Init(opts...)
	defer rt.Terminate()

	logs := make([]*Writable[[]uint64], chaosSets)
	for s := range logs {
		logs[s] = NewWritable(rt, []uint64{})
	}
	rt.BeginIsolation()
	for i := 0; i < chaosOps; i++ {
		i := uint64(i)
		for s := 0; s < chaosSets; s++ {
			logs[s].DelegateTo(uint64(chaosHotSet+s), func(_ *Ctx, log *[]uint64) {
				*log = append(*log, i)
			})
		}
	}
	rt.EndIsolation()

	out := make(map[uint64][]uint64, chaosSets)
	for s, w := range logs {
		set := uint64(chaosHotSet + s)
		w.Call(func(log *[]uint64) { out[set] = append([]uint64(nil), *log...) })
	}
	return out
}

func logsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosDeterministicPoisoning: in every mode, a deterministic injected
// fault at op chaosFaultPos of one set leaves that set's log byte-identical
// across 6 runs (exactly the prefix before the fault) and every other
// set's log identical to the fault-free run.
func TestChaosDeterministicPoisoning(t *testing.T) {
	sequential := runSkewed(t, []Option{Sequential()})
	for _, mode := range chaosModes {
		t.Run(mode.name, func(t *testing.T) {
			baseline := runSkewed(t, mode.opts)
			for set, log := range sequential {
				if !logsEqual(baseline[set], log) {
					t.Fatalf("fault-free run diverged from sequential on set %d", set)
				}
			}
			var first map[uint64][]uint64
			for run := 0; run < 6; run++ {
				in := chaos.PanicAt(chaosHotSet, chaosFaultPos)
				got := runSkewed(t, append(append([]Option{}, mode.opts...), withInjector(in)))
				if in.Fired() != 1 {
					t.Fatalf("run %d: injector fired %d times, want 1", run, in.Fired())
				}
				// (b) the poisoning point is deterministic: the faulted set
				// executed exactly ops 1..chaosFaultPos-1, every run.
				if want := baseline[chaosHotSet][:chaosFaultPos-1]; !logsEqual(got[chaosHotSet], want) {
					t.Fatalf("run %d: poisoned set log = %v, want prefix %v", run, got[chaosHotSet], want)
				}
				// (c) non-poisoned sets are untouched by the fault.
				for set, log := range got {
					if set == chaosHotSet {
						continue
					}
					if !logsEqual(log, baseline[set]) {
						t.Fatalf("run %d: healthy set %d diverged from the fault-free run", run, set)
					}
				}
				if first == nil {
					first = got
					continue
				}
				for set, log := range got {
					if !logsEqual(log, first[set]) {
						t.Fatalf("run %d: set %d diverged across faulty runs", run, set)
					}
				}
			}
		})
	}
}

// TestChaosErrorSurface: the contained fault is reported through Err as one
// *PanicError record wrapping the injected value with its original stack,
// and the fault counters surface through Stats.
func TestChaosErrorSurface(t *testing.T) {
	for _, mode := range chaosModes {
		t.Run(mode.name, func(t *testing.T) {
			in := chaos.PanicAt(chaosHotSet, chaosFaultPos)
			rt := Init(append(append([]Option{}, mode.opts...), withInjector(in))...)
			defer rt.Terminate()

			w := NewWritable(rt, 0)
			healthy := NewWritable(rt, 0)
			rt.BeginIsolation()
			for i := 0; i < chaosOps; i++ {
				w.DelegateTo(chaosHotSet, func(_ *Ctx, n *int) { *n++ })
				healthy.DelegateTo(chaosHotSet+1, func(_ *Ctx, n *int) { *n++ })
			}
			rt.EndIsolation()

			err := rt.Err()
			if err == nil {
				t.Fatal("Err() = nil after an injected fault")
			}
			if !errors.Is(err, chaos.Fault{Set: chaosHotSet, N: chaosFaultPos}) {
				t.Errorf("Err() chain does not reach the injected chaos.Fault: %v", err)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Err() chain has no *PanicError: %v", err)
			}
			// Context 0 contains faults too: a set the program context took
			// over in the barrier.
			if pe.Set != chaosHotSet || pe.Ctx < 0 || pe.Ctx >= rt.NumContexts() || pe.Epoch != 1 {
				t.Errorf("PanicError = {Set:%d Ctx:%d Epoch:%d}, want set %d on a context of this runtime in epoch 1",
					pe.Set, pe.Ctx, pe.Epoch, chaosHotSet)
			}
			if !strings.Contains(string(pe.Stack), "chaos") {
				t.Error("PanicError.Stack does not reach the original failure site")
			}
			perSet := map[uint64]int{}
			for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
				var rec *PanicError
				if !errors.As(e, &rec) {
					t.Fatalf("Err() joins a %T, want only *PanicError records", e)
				}
				perSet[rec.Set]++
			}
			if perSet[chaosHotSet] != 1 || perSet[chaosHotSet+1] != 0 {
				t.Errorf("Err() records per set = %v, want exactly one for set %d and none for set %d",
					perSet, chaosHotSet, chaosHotSet+1)
			}
			st := rt.Stats()
			wantDropped := uint64(chaosOps - chaosFaultPos)
			if st.Panics != 1 || st.PoisonedSets != 1 || st.DroppedOps != wantDropped {
				t.Errorf("stats = {Panics:%d PoisonedSets:%d DroppedOps:%d}, want {1 1 %d}",
					st.Panics, st.PoisonedSets, st.DroppedOps, wantDropped)
			}
			w.Call(func(n *int) {
				if *n != chaosFaultPos-1 {
					t.Errorf("faulted set executed %d ops, want %d", *n, chaosFaultPos-1)
				}
			})
			healthy.Call(func(n *int) {
				if *n != chaosOps {
					t.Errorf("healthy set executed %d ops, want %d", *n, chaosOps)
				}
			})
		})
	}
}

// runTree runs the recursive fan-out shape: set 1 is delegated from the
// program context and every node set s recursively delegates to its
// children 2s and 2s+1 below maxNode, each node bumping its slot in a
// shared per-node tally (one writer per slot: the node's own operation).
func runTree(t *testing.T, opts []Option, maxNode uint64) []uint64 {
	t.Helper()
	rt := Init(opts...)
	defer rt.Terminate()

	tally := make([]uint64, maxNode+1)
	root := NewWritable(rt, struct{}{})
	var visit func(c *Ctx, s uint64)
	visit = func(c *Ctx, s uint64) {
		tally[s]++
		for _, child := range []uint64{2 * s, 2*s + 1} {
			if child <= maxNode {
				child := child
				c.Delegate(child, func(c *Ctx) { visit(c, child) })
			}
		}
	}
	rt.BeginIsolation()
	root.DelegateTo(1, func(c *Ctx, _ *struct{}) { visit(c, 1) })
	rt.EndIsolation()
	return tally
}

// TestChaosRecursiveTree: a fault injected at a leaf of a recursive
// delegation tree truncates exactly that leaf, deterministically, in both
// recursive modes — the divide-and-conquer (quicksort/FPM) delegation
// shape under chaos.
func TestChaosRecursiveTree(t *testing.T) {
	const maxNode = 31
	const leaf = 27 // a leaf set: 2*27 > maxNode
	for _, mode := range chaosModes {
		if !strings.HasPrefix(mode.name, "rec") {
			continue // Ctx.Delegate requires Recursive
		}
		t.Run(mode.name, func(t *testing.T) {
			baseline := runTree(t, mode.opts, maxNode)
			for s := uint64(1); s <= maxNode; s++ {
				if baseline[s] != 1 {
					t.Fatalf("fault-free tree visited node %d %d times, want 1", s, baseline[s])
				}
			}
			for run := 0; run < 6; run++ {
				in := chaos.PanicAt(leaf, 1)
				got := runTree(t, append(append([]Option{}, mode.opts...), withInjector(in)), maxNode)
				if in.Fired() != 1 {
					t.Fatalf("run %d: injector fired %d times, want 1", run, in.Fired())
				}
				for s := uint64(1); s <= maxNode; s++ {
					want := uint64(1)
					if s == leaf {
						want = 0 // the faulted leaf's op never ran
					}
					if got[s] != want {
						t.Fatalf("run %d: node %d visited %d times, want %d", run, s, got[s], want)
					}
				}
			}
		})
	}
}

// TestChaosSeededSurvival: under scattered probabilistic faults across
// several epochs, every mode survives, every barrier closes, the fault
// accounting matches the injector, and the outcome is reproducible (the
// injector is deterministic per (set, position), so two identical runs
// must produce identical logs).
func TestChaosSeededSurvival(t *testing.T) {
	const epochs = 3
	run := func(opts []Option, in *chaos.Injector) (map[uint64][]uint64, Stats, error) {
		rt := Init(append(append([]Option{}, opts...), withInjector(in))...)
		defer rt.Terminate()
		logs := make([]*Writable[[]uint64], chaosSets)
		for s := range logs {
			logs[s] = NewWritable(rt, []uint64{})
		}
		for e := 0; e < epochs; e++ {
			rt.BeginIsolation()
			for i := 0; i < chaosOps; i++ {
				v := uint64(e*chaosOps + i)
				for s := 0; s < chaosSets; s++ {
					logs[s].DelegateTo(uint64(chaosHotSet+s), func(_ *Ctx, log *[]uint64) {
						*log = append(*log, v)
					})
				}
			}
			rt.EndIsolation()
		}
		out := make(map[uint64][]uint64, chaosSets)
		for s, w := range logs {
			set := uint64(chaosHotSet + s)
			w.Call(func(log *[]uint64) { out[set] = append([]uint64(nil), *log...) })
		}
		return out, rt.Stats(), rt.Err()
	}
	for _, mode := range chaosModes {
		t.Run(mode.name, func(t *testing.T) {
			inA := chaos.Seeded(7, 0.02)
			a, stA, errA := run(mode.opts, inA)
			if stA.Panics != inA.Fired() {
				t.Errorf("Stats.Panics = %d, injector fired %d", stA.Panics, inA.Fired())
			}
			if (errA != nil) != (inA.Fired() > 0) {
				t.Errorf("Err() = %v with %d faults fired", errA, inA.Fired())
			}
			inB := chaos.Seeded(7, 0.02)
			b, stB, _ := run(mode.opts, inB)
			if inA.Fired() != inB.Fired() {
				t.Fatalf("identical seeded runs fired %d vs %d faults", inA.Fired(), inB.Fired())
			}
			if stA.Panics != stB.Panics || stA.PoisonedSets != stB.PoisonedSets || stA.DroppedOps != stB.DroppedOps {
				t.Fatalf("identical seeded runs diverged: %+v vs %+v faults", stA.Panics, stB.Panics)
			}
			for set := uint64(chaosHotSet); set < chaosHotSet+chaosSets; set++ {
				if !logsEqual(a[set], b[set]) {
					t.Fatalf("set %d diverged between identical seeded runs:\n%v\n%v", set, a[set], b[set])
				}
			}
		})
	}
}

// chaosSkewed is a 90/10 hot/cold nested shape that is fault-tolerant by
// construction: the program context streams the hot runs (bounded by lane
// backpressure), each hot operation issues one fire-and-forget nested
// delegation to a cold set, and the only waits are the epoch barriers,
// which containment guarantees close no matter which operations were
// dropped. (A workload that spin-waits inside an operation for a marker
// delegated to a set that may be poisoned would hang: doc.go "Fault
// containment".) Two epochs, so poisoning clearing at the boundary is on
// the path.
func chaosSkewed(opts []Option) Stats {
	rt := Init(opts...)
	defer rt.Terminate()
	hot := []uint64{0, 4, 8, 12} // delegate 1 under StaticMod: set mod 4 + 1
	cold := []uint64{2, 6, 3, 7} // spread; produced only by the hot ops' delegate
	w := NewWritable(rt, 0)
	for epoch := 0; epoch < 2; epoch++ {
		rt.BeginIsolation()
		for i := 0; i < 400; i++ {
			h := hot[i%len(hot)]
			c := cold[i%len(cold)]
			w.DelegateTo(h, func(cx *Ctx, _ *int) {
				time.Sleep(5 * time.Microsecond)
				cx.Delegate(c, func(*Ctx) {})
			})
		}
		rt.EndIsolation()
	}
	return rt.Stats()
}

// TestChaosWorkloadSurvives: seeded probabilistic faults hit operations
// that themselves delegate, across two epochs. Every rate must run to
// completion in every Recursive mode — a wedged barrier would hang the
// test — with no panic in the control row and some in the faulty ones.
func TestChaosWorkloadSurvives(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    float64
	}{
		{"control", 0},
		{"low", 0.005},
		{"high", 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range chaosModes {
				if !strings.HasPrefix(mode.name, "rec") {
					continue // Ctx.Delegate requires Recursive
				}
				t.Run(mode.name, func(t *testing.T) {
					st := chaosSkewed(append(append([]Option{}, mode.opts...), withInjector(chaos.Seeded(11, tc.p))))
					if st.Epochs != 2 {
						t.Errorf("closed %d epochs, want 2", st.Epochs)
					}
					if tc.p == 0 && st.Panics != 0 {
						t.Errorf("control row contained %d panics, want 0", st.Panics)
					}
					if tc.p > 0 && st.Panics == 0 {
						t.Errorf("p=%g row contained no panics", tc.p)
					}
				})
			}
		})
	}
}
