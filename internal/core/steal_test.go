package core

import (
	"sync/atomic"
	"testing"
	"time"
)

func stealCfg(delegates, threshold int) Config {
	return Config{
		Delegates:      delegates,
		Policy:         LeastLoaded,
		Stealing:       true,
		StealThreshold: threshold,
	}
}

// noStealThreshold suppresses occupancy steals in the shapes that isolate
// placement from the rebalancer: none of them backs a delegate up this far.
const noStealThreshold = 64

func recStealCfg(delegates, threshold int) Config {
	cfg := stealCfg(delegates, threshold)
	cfg.Recursive = true
	return cfg
}

// bothWidths runs a rebalancer shape driven from the program context on a
// one-lane pool and on the Recursive lane matrix: with the program context
// as the only producer the two must behave identically.
func bothWidths(t *testing.T, delegates, threshold int, shape func(t *testing.T, rt *Runtime)) {
	for _, cfg := range []Config{stealCfg(delegates, threshold), recStealCfg(delegates, threshold)} {
		name := "one-lane"
		if cfg.Recursive {
			name = "recursive"
		}
		t.Run(name, func(t *testing.T) { shape(t, newTestRuntime(t, cfg)) })
	}
}

// TestStealHandsOffQuiescentSet builds the canonical imbalance by hand:
// delegate 1 is pinned by a long-running operation while a second set —
// whose own operations have all completed — gets its next delegation. The
// rebalancer must hand that set, whole, to the idle delegate 2.
func TestStealHandsOffQuiescentSet(t *testing.T) {
	bothWidths(t, 2, 1, func(t *testing.T, rt *Runtime) {
		rt.BeginIsolation()
		defer rt.EndIsolation()

		// Set 200 runs one op to completion on delegate 1 (every delegate
		// idle: first touch resolves the tie to the lowest id).
		if ctx := rt.Delegate(200, func(int) {}); ctx != 1 {
			t.Fatalf("set 200 first-touched onto delegate %d, want 1", ctx)
		}
		waitExec(t, rt, 1, ProgramContext, 1)

		// Pin delegate 1 with set 100 (idle pool again: same tie) so it is a
		// steal victim — occupancy 1 >= threshold 1 — while set 200 is
		// quiescent there.
		release := startGated(rt, 100)
		ctx := rt.Delegate(200, func(int) {})
		release()
		if ctx != 2 {
			t.Fatalf("quiescent set 200 delegated to %d, want stolen to idle delegate 2", ctx)
		}
		if got := ownerOf(rt, 200); got != 2 {
			t.Fatalf("owner table has set 200 on %d, want 2", got)
		}
		if st := rt.Stats(); st.Steals != 1 {
			t.Fatalf("Steals = %d, want 1", st.Steals)
		}
		// Sticky after the handoff: once the thief is below threshold again,
		// the next delegation stays with it.
		waitExec(t, rt, 2, ProgramContext, 1)
		if ctx := rt.Delegate(200, func(int) {}); ctx != 2 {
			t.Fatalf("post-steal delegation went to %d, want sticky thief 2", ctx)
		}
	})
}

// TestNoStealWhileSetInFlight pins the safety half: a set with an operation
// still queued or running on its owner must never be handed off, no matter
// how loaded the owner is — moving it would let the set's operations run out
// of program order.
func TestNoStealWhileSetInFlight(t *testing.T) {
	bothWidths(t, 2, 1, func(t *testing.T, rt *Runtime) {
		rt.BeginIsolation()
		defer rt.EndIsolation()

		release := startGated(rt, 200) // set 200's own first op pins delegate 1
		var order []int
		// Owner occupancy is at or above threshold and delegate 2 is idle, but
		// set 200 has work running (then queued) on delegate 1: every
		// delegation must follow it there.
		for i := 1; i <= 2; i++ {
			if ctx := rt.Delegate(200, func(int) { order = append(order, i) }); ctx != 1 {
				t.Fatalf("in-flight set delegated to %d, want owner 1", ctx)
			}
		}
		if st := rt.Stats(); st.Steals != 0 {
			t.Fatalf("Steals = %d, want 0 (set was in flight)", st.Steals)
		}
		release()
		rt.barrier()
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("per-set order = %v, want [1 2]", order)
		}
	})
}

// TestNoStealBelowThreshold: a lightly loaded owner keeps its sets even with
// idle peers — transient pipelining must not shuffle ownership around.
func TestNoStealBelowThreshold(t *testing.T) {
	rt := newTestRuntime(t, stealCfg(2, 100))
	rt.BeginIsolation()
	defer rt.EndIsolation()

	rt.Delegate(200, func(int) {})
	waitExec(t, rt, 1, ProgramContext, 1)
	release := startGated(rt, 100)
	if ctx := rt.Delegate(200, func(int) {}); ctx != 1 {
		t.Fatalf("set 200 moved to %d below threshold, want 1", ctx)
	}
	release()
	if st := rt.Stats(); st.Steals != 0 {
		t.Fatalf("Steals = %d, want 0", st.Steals)
	}
}

// TestNoStealWithoutUnderloadedThief: when every peer is about as loaded as
// the victim, handing a set around buys nothing — the occupancy gap (thief
// at most a quarter of the victim) must hold.
func TestNoStealWithoutUnderloadedThief(t *testing.T) {
	rt := newTestRuntime(t, stealCfg(2, 1))
	rt.BeginIsolation()
	defer rt.EndIsolation()

	// Set 200 completes one op on delegate 1; then gate delegate 1 (set 100,
	// idle-pool tie) and delegate 2 (set 300: the only idle delegate), and
	// pile a backlog of set-300 work behind that second gate.
	rt.Delegate(200, func(int) {})
	waitExec(t, rt, 1, ProgramContext, 1)
	release1 := startGated(rt, 100)
	release2 := startGated(rt, 300)
	if got := ownerOf(rt, 300); got != 2 {
		t.Fatalf("set 300 first-touched onto %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		rt.Delegate(300, func(int) {})
	}
	// Set 200 is quiescent and its owner is at threshold (occupancy 1), but
	// the only candidate thief holds 5 outstanding ops: 5*4 > 1, so no steal.
	if ctx := rt.Delegate(200, func(int) {}); ctx != 1 {
		t.Fatalf("set 200 stolen to %d despite loaded thief, want 1", ctx)
	}
	if st := rt.Stats(); st.Steals != 0 {
		t.Fatalf("Steals = %d, want 0", st.Steals)
	}
	release1()
	release2()
}

// TestStealingConfigValidation: the rebalancer needs the LeastLoaded owner
// table, so Stealing selects that policy, with or without Recursive.
func TestStealingConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Delegates: 2, Stealing: true},
		{Delegates: 2, Stealing: true, Recursive: true, Policy: StaticMod},
	} {
		if got := newTestRuntime(t, cfg).Config().Policy; got != LeastLoaded {
			t.Errorf("New(%+v) runs policy %v, want %v", cfg, got, LeastLoaded)
		}
	}
	// Sequential debug mode ignores stealing rather than rejecting it.
	rt := New(Config{Sequential: true, Stealing: true})
	rt.BeginIsolation()
	ran := false
	rt.Delegate(1, func(int) { ran = true })
	rt.EndIsolation()
	rt.Terminate()
	if !ran {
		t.Fatal("sequential runtime with Stealing did not execute inline")
	}
}

// TestStealStress repeats the gated handoff dance many times, checking
// per-set program order end to end. Each iteration pins whichever delegate
// currently owns set 200, so every iteration hands the set back across. Run
// under -race this exercises the exec-counter synchronization between
// victim, program context, and thief (the CI engine-stress job).
func TestStealStress(t *testing.T) {
	bothWidths(t, 2, 1, func(t *testing.T, rt *Runtime) {
		var log200 []int
		var gateOps atomic.Int64
		rt.BeginIsolation()
		place(rt, 101, 1) // the gate sets, one per delegate
		place(rt, 102, 2)
		place(rt, 200, 1)
		const iters = 50
		for iter := 0; iter < iters; iter++ {
			gate := uint64(100 + ownerOf(rt, 200))
			release := startGated(rt, gate)
			for j := 0; j < 4; j++ {
				v := 4*iter + j
				rt.Delegate(200, func(int) { log200 = append(log200, v) })
			}
			rt.Delegate(gate, func(int) { gateOps.Add(1) })
			release()
			// Quiesce both delegates so every iteration starts from a clean
			// occupancy state and the next gated op re-creates the imbalance.
			rt.barrier()
		}
		rt.EndIsolation()
		if len(log200) != 4*iters || gateOps.Load() != iters {
			t.Fatalf("lost operations: |log200|=%d want %d, gate ops %d want %d",
				len(log200), 4*iters, gateOps.Load(), iters)
		}
		for i, v := range log200 {
			if v != i {
				t.Fatalf("set 200 order broken at %d: got %d", i, v)
			}
		}
		if st := rt.Stats(); st.Steals < iters/2 {
			t.Fatalf("Steals = %d, want the set handed across on (nearly) every one of %d iterations", st.Steals, iters)
		}
	})
}

// BenchmarkCoreDelegateSkewed is the paper's core imbalance scenario:
// dependence chains of very uneven length. 64 serialization sets enter the
// epoch with sticky owners from their (cheap) earlier chains — 16 "hot" sets
// all owned by delegate 1, 48 cold sets spread over the rest — and then 90%
// of the epoch's operations land on the hot sets. Without stealing, delegate
// 1 serializes ~90% of the work while its peers idle; with stealing, hot
// sets are handed to underloaded delegates at their first quiescent moment.
//
// The "blocking" variants give each operation a short sleep (a stand-in for
// I/O-bound delegate work), so rebalancing shows up in wall clock even on a
// single-CPU host — delegates overlap their blocked time. The "cpu" variants
// are pure compute: on a multi-core host they show the same shape; on one
// CPU total work is serialized regardless of placement, so expect them flat
// there.
//
// The "epochs" variants run the blocking traffic for 8 epochs on one
// runtime with placement left to first touch: every epoch opens on an
// empty owner table, so they measure where first touch puts the sets
// epoch after epoch and what stealing adds to it.
func BenchmarkCoreDelegateSkewed(b *testing.B) {
	const (
		delegates = 4
		hotSets   = 16
		coldSets  = 48
		nOps      = 2000
		epochs    = 8
	)
	var sink atomic.Uint64
	blockingOp := func(int) { time.Sleep(20 * time.Microsecond) }
	cpuOp := func(int) {
		x := uint64(1)
		for j := 0; j < 300; j++ {
			x = x*1664525 + 1013904223
		}
		sink.Add(x)
	}
	delegateSkewed := func(rt *Runtime, op func(int)) {
		hot, cold := 0, 0
		for k := 0; k < nOps; k++ {
			if k%10 != 9 {
				rt.Delegate(uint64(hot%hotSets), op)
				hot++
			} else {
				rt.Delegate(uint64(hotSets+cold%coldSets), op)
				cold++
			}
		}
	}
	run := func(b *testing.B, stealing bool, op func(int)) {
		steals := uint64(0)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt := New(Config{Delegates: delegates, Policy: LeastLoaded, Stealing: stealing})
			rt.BeginIsolation()
			// Install the skewed sticky ownership the uneven earlier chains
			// would have left behind (no positions: those chains completed).
			for s := 0; s < hotSets; s++ {
				place(rt, uint64(s), 1)
			}
			for s := 0; s < coldSets; s++ {
				place(rt, uint64(hotSets+s), 2+s%(delegates-1))
			}
			b.StartTimer()
			delegateSkewed(rt, op)
			rt.EndIsolation() // barrier: include completing the backlog
			b.StopTimer()
			steals += rt.Stats().Steals
			rt.Terminate()
		}
		b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
	}
	b.Run("blocking-nosteal", func(b *testing.B) { run(b, false, blockingOp) })
	b.Run("blocking-steal", func(b *testing.B) { run(b, true, blockingOp) })
	b.Run("cpu-nosteal", func(b *testing.B) { run(b, false, cpuOp) })
	b.Run("cpu-steal", func(b *testing.B) { run(b, true, cpuOp) })
	runEpochs := func(b *testing.B, stealing bool) {
		steals := uint64(0)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt := New(Config{Delegates: delegates, Policy: LeastLoaded, Stealing: stealing})
			b.StartTimer()
			for e := 0; e < epochs; e++ {
				rt.BeginIsolation()
				delegateSkewed(rt, blockingOp)
				rt.EndIsolation()
			}
			b.StopTimer()
			steals += rt.Stats().Steals
			rt.Terminate()
		}
		b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
	}
	b.Run("epochs-nosteal", func(b *testing.B) { runEpochs(b, false) })
	b.Run("epochs-steal", func(b *testing.B) { runEpochs(b, true) })
}

// TestDrainBatchesCount: a backlog released at once must be consumed through
// the batched drain path, visible in the DrainedOps counter.
func TestDrainBatchesCount(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	release := startGated(rt, 0)
	var ran atomic.Int64
	const n = 100
	for i := 0; i < n; i++ {
		rt.Delegate(0, func(int) { ran.Add(1) })
	}
	release()
	rt.EndIsolation()
	if got := ran.Load(); got != n {
		t.Fatalf("ran = %d, want %d", got, n)
	}
	st := rt.Stats()
	if st.DrainBatches == 0 || st.DrainedOps == 0 {
		t.Fatalf("drain counters zero after a %d-op backlog: %+v", n, st)
	}
	if st.DrainedOps < n/2 {
		t.Fatalf("DrainedOps = %d, want most of the %d-op backlog drained in runs", st.DrainedOps, n)
	}
}
