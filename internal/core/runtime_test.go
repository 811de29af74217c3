package core

import (
	"sync/atomic"
	"testing"
	"time"
)

func newTestRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := New(cfg)
	t.Cleanup(rt.Terminate)
	return rt
}

// ownerOf reads a set's dynamic owner (0 when the owner table holds no
// entry for it).
func ownerOf(rt *Runtime, set uint64) int {
	if e := rt.owners.Load().lookup(set); e != nil {
		return int(e.owner.Load())
	}
	return 0
}

// place pre-places set on a delegate: an entry with no history, so tests
// can build a placement first touch would not. It may be stolen at its
// first delegation.
func place(rt *Runtime, set uint64, owner int) {
	rt.owners.Load().insert(set, newSetEntry(owner))
}

// waitExec polls delegate ctx's published exec counter for producer's lane
// until it covers lane position pos (the condition the rebalancer's
// safe-handoff check reads).
func waitExec(t *testing.T, rt *Runtime, ctx, producer int, pos uint64) {
	t.Helper()
	le := &rt.delegates[ctx-1].exec[producer]
	deadline := time.Now().Add(5 * time.Second)
	for le.Load() < pos {
		if time.Now().After(deadline) {
			t.Fatalf("delegate %d lane %d never reached executed=%d (at %d)", ctx, producer, pos, le.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Delegates < 1 {
		t.Errorf("Delegates = %d, want >= 1", c.Delegates)
	}
	if c.QueueCapacity <= 0 {
		t.Errorf("QueueCapacity = %d, want > 0", c.QueueCapacity)
	}
}

// TestAssignmentTable pins StaticMod's placement: set s runs on delegate
// s mod D + 1, D the pool size, at several pool sizes.
func TestAssignmentTable(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		rt := newTestRuntime(t, Config{Delegates: d})
		rt.BeginIsolation()
		for set := uint64(0); set < 40; set++ {
			want := int(set%uint64(d)) + 1
			if got := rt.ContextFor(set); got != want {
				t.Fatalf("%d delegates: ContextFor(%d) = %d, want %d", d, set, got, want)
			}
			if got := rt.Delegate(set, func(int) {}); got != want {
				t.Fatalf("%d delegates: Delegate(%d) ran on %d, want %d", d, set, got, want)
			}
		}
		rt.EndIsolation()
	}
}

func TestSameSetSameContext(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	for set := uint64(0); set < 100; set++ {
		first := rt.ContextFor(set)
		for i := 0; i < 5; i++ {
			if got := rt.ContextFor(set); got != first {
				t.Fatalf("set %d: context changed %d -> %d", set, first, got)
			}
		}
	}
}

// TestPerSetOrdering is the central model property: operations in the same
// serialization set execute in program (delegation) order.
func TestPerSetOrdering(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	const sets = 16
	const opsPerSet = 2000
	results := make([][]int, sets)

	rt.BeginIsolation()
	for i := 0; i < opsPerSet; i++ {
		for s := 0; s < sets; s++ {
			s, i := s, i
			rt.Delegate(uint64(s), func(ctx int) {
				results[s] = append(results[s], i) // safe: one set = one context, serial
			})
		}
	}
	rt.EndIsolation()

	for s := 0; s < sets; s++ {
		if len(results[s]) != opsPerSet {
			t.Fatalf("set %d: %d ops, want %d", s, len(results[s]), opsPerSet)
		}
		for i, v := range results[s] {
			if v != i {
				t.Fatalf("set %d: op %d out of order (got %d)", s, i, v)
			}
		}
	}
}

func TestDifferentSetsRunConcurrently(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	rt.BeginIsolation()
	// Set 0 blocks until set 1 has run: only possible if they execute on
	// different contexts concurrently.
	release := make(chan struct{})
	done := make(chan struct{})
	rt.Delegate(0, func(ctx int) {
		<-release
		close(done)
	})
	rt.Delegate(1, func(ctx int) {
		close(release)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sets 0 and 1 did not run concurrently")
	}
	rt.EndIsolation()
}

func TestSyncContextWaitsForOutstandingWork(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	var flag atomic.Bool
	rt.BeginIsolation()
	ctx := rt.Delegate(7, func(int) {
		time.Sleep(20 * time.Millisecond)
		flag.Store(true)
	})
	rt.SyncContext(ctx)
	if !flag.Load() {
		t.Fatal("SyncContext returned before delegated op completed")
	}
	rt.EndIsolation()
}

func TestSyncSetLeastLoadedUnknownSetNoop(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded})
	rt.BeginIsolation()
	rt.SyncSet(999) // never delegated: must not deadlock or assign
	if ownerOf(rt, 999) != 0 {
		t.Fatal("SyncSet should not assign an owner")
	}
	rt.EndIsolation()
}

// TestLeastLoadedSticky: first touch places a set, and without Stealing it
// stays put for the epoch however the load moves — with Recursive too
// (LeastLoaded without Stealing is a legal pairing there), for sets
// first-touched by the program context and by a delegate alike.
func TestLeastLoadedSticky(t *testing.T) {
	for _, recursive := range []bool{false, true} {
		name := "one-lane"
		if recursive {
			name = "recursive"
		}
		t.Run(name, func(t *testing.T) {
			rt := newTestRuntime(t, Config{Delegates: 4, Policy: LeastLoaded, Recursive: recursive})
			rt.BeginIsolation()
			first := rt.ContextFor(5)
			for i := 0; i < 10; i++ {
				rt.Delegate(5, func(int) { time.Sleep(time.Millisecond) })
				if got := rt.ContextFor(5); got != first {
					t.Fatalf("LeastLoaded moved set mid-epoch: %d -> %d", first, got)
				}
			}
			if recursive {
				// A nested set, first-touched from delegate context `first`:
				// placed off its producer's own delegate, then sticky while
				// its owner backs up and two other delegates sit idle.
				var routed [10]int
				rt.Delegate(5, func(ctx int) {
					for i := range routed {
						routed[i] = rt.DelegateFrom(ctx, 6, func(int) { time.Sleep(100 * time.Microsecond) })
					}
				})
				rt.SyncContext(first)
				for _, got := range routed {
					if got == first || got != routed[0] {
						t.Fatalf("nested set routed to %v from context %d, want one delegate other than the producer's", routed, first)
					}
				}
			}
			rt.EndIsolation()
			if st := rt.Stats(); st.Steals != 0 {
				t.Fatalf("Steals = %d without Stealing", st.Steals)
			}
			// New epoch may choose a different owner; the table must reset.
			rt.BeginIsolation()
			if rt.owners.Load().len() != 0 {
				t.Fatal("owner table not cleared at epoch start")
			}
			rt.EndIsolation()
		})
	}
}

func TestEndIsolationIsBarrier(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	var count atomic.Int64
	rt.BeginIsolation()
	for i := 0; i < 500; i++ {
		rt.Delegate(uint64(i), func(int) {
			time.Sleep(10 * time.Microsecond)
			count.Add(1)
		})
	}
	rt.EndIsolation()
	if got := count.Load(); got != 500 {
		t.Fatalf("after EndIsolation count = %d, want 500", got)
	}
}

func TestSequentialModeInline(t *testing.T) {
	rt := newTestRuntime(t, Config{Sequential: true})
	order := []int{}
	rt.BeginIsolation()
	for i := 0; i < 10; i++ {
		i := i
		rt.Delegate(uint64(i%3), func(ctx int) {
			if ctx != ProgramContext {
				t.Errorf("sequential mode ran on ctx %d", ctx)
			}
			order = append(order, i)
		})
	}
	rt.EndIsolation()
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential mode out of program order at %d: %d", i, v)
		}
	}
	st := rt.Stats()
	if st.InlineExecs != 10 || st.Delegations != 0 {
		t.Fatalf("stats = %+v, want 10 inline / 0 delegated", st)
	}
}

func TestEpochCounting(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	if rt.Epoch() != 0 || rt.InIsolation() {
		t.Fatal("fresh runtime should be in aggregation epoch 0")
	}
	for i := 1; i <= 3; i++ {
		rt.BeginIsolation()
		if rt.Epoch() != uint64(i) || !rt.InIsolation() {
			t.Fatalf("epoch %d state wrong", i)
		}
		rt.EndIsolation()
	}
	if rt.Stats().Epochs != 3 {
		t.Fatalf("Epochs = %d, want 3", rt.Stats().Epochs)
	}
}

func TestNestedIsolationPanics(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	defer rt.EndIsolation()
	defer func() {
		if recover() == nil {
			t.Fatal("nested BeginIsolation should panic")
		}
	}()
	rt.BeginIsolation()
}

func TestEndWithoutBeginPanics(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("EndIsolation without BeginIsolation should panic")
		}
	}()
	rt.EndIsolation()
}

func TestDelegateAfterTerminatePanics(t *testing.T) {
	rt := New(Config{Delegates: 1})
	rt.Terminate()
	defer func() {
		if recover() == nil {
			t.Fatal("Delegate after Terminate should panic")
		}
	}()
	rt.Delegate(0, func(int) {})
}

func TestTerminateIdempotent(t *testing.T) {
	rt := New(Config{Delegates: 2})
	rt.Terminate()
	rt.Terminate() // must not hang or panic
}

func TestTerminateDuringIsolationDrains(t *testing.T) {
	rt := New(Config{Delegates: 2})
	var count atomic.Int64
	rt.BeginIsolation()
	for i := 0; i < 100; i++ {
		rt.Delegate(uint64(i), func(int) { count.Add(1) })
	}
	rt.Terminate()
	if got := count.Load(); got != 100 {
		t.Fatalf("Terminate lost work: %d/100 ran", got)
	}
}

func TestRunParallel(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	var sum atomic.Int64
	tasks := make([]func(int), 20)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx int) {
			if ctx < 0 || ctx > 4 { // 0: shed to the helping program context
				t.Errorf("RunParallel task on ctx %d", ctx)
			}
			sum.Add(int64(i))
		}
	}
	rt.RunParallel(tasks)
	if got := sum.Load(); got != 190 {
		t.Fatalf("sum = %d, want 190", got)
	}
}

func TestRunParallelDuringIsolationPanics(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	defer rt.EndIsolation()
	defer func() {
		if recover() == nil {
			t.Fatal("RunParallel during isolation should panic")
		}
	}()
	rt.RunParallel([]func(int){func(int) {}})
}

func TestPhaseAccounting(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	time.Sleep(5 * time.Millisecond) // aggregation
	rt.BeginIsolation()
	time.Sleep(5 * time.Millisecond) // isolation
	rt.EndIsolation()
	rt.EnterReduction()
	time.Sleep(5 * time.Millisecond) // reduction
	rt.ExitReduction()
	st := rt.Stats()
	for name, d := range map[string]time.Duration{
		"aggregation": st.Aggregation, "isolation": st.Isolation, "reduction": st.Reduction,
	} {
		if d < 4*time.Millisecond {
			t.Errorf("%s time = %v, want >= ~5ms", name, d)
		}
	}
	if st.Total() < 14*time.Millisecond {
		t.Errorf("total = %v, want >= ~15ms", st.Total())
	}
}

func TestSleepBarriers(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	var done atomic.Bool
	rt.BeginIsolation()
	rt.Delegate(1, func(int) {
		time.Sleep(10 * time.Millisecond)
		done.Store(true)
	})
	rt.EndIsolation()
	rt.Sleep()
	if !done.Load() {
		t.Fatal("Sleep returned with outstanding work")
	}
}

func TestStatsCounters(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	rt.BeginIsolation()
	rt.Delegate(0, func(int) {})
	ctx := rt.Delegate(1, func(int) {})
	rt.SyncContext(ctx)
	rt.EndIsolation()
	st := rt.Stats()
	if st.InlineExecs != 0 {
		t.Errorf("InlineExecs = %d, want 0 (only Sequential mode runs inline)", st.InlineExecs)
	}
	if st.Delegations != 2 {
		t.Errorf("Delegations = %d, want 2", st.Delegations)
	}
	if st.Syncs != 1 {
		t.Errorf("Syncs = %d, want 1", st.Syncs)
	}
	if st.Barriers < 1 {
		t.Errorf("Barriers = %d, want >= 1", st.Barriers)
	}
}

func TestSyncSkipsCleanDelegates(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	rt.BeginIsolation()
	rt.Delegate(1, func(int) {})
	rt.EndIsolation()
	before := rt.Stats().Syncs
	rt.BeginIsolation()
	rt.SyncSet(1) // nothing delegated this epoch; the barrier left the delegate clean
	rt.EndIsolation()
	if got := rt.Stats().Syncs; got != before {
		t.Errorf("Syncs = %d, want %d (clean delegate should be skipped)", got, before)
	}
}

// TestSyncContextIsSingleTarget: without Recursive a SyncContext is the
// paper's synchronization object — one message down one delegate's lane —
// not a barrier: it returns while another delegate is still blocked.
func TestSyncContextIsSingleTarget(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	rt.BeginIsolation()
	release := startGated(rt, 1) // set 1 -> delegate 2, blocked
	var ran atomic.Bool
	if ctx := rt.Delegate(0, func(int) { ran.Store(true) }); ctx != 1 {
		t.Fatalf("set 0 on delegate %d, want 1", ctx)
	}
	synced := make(chan struct{})
	go func() {
		defer close(synced)
		rt.SyncContext(1)
	}()
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("SyncContext(1) waited on delegate 2's blocked operation")
	}
	if !ran.Load() {
		t.Fatal("SyncContext(1) returned before delegate 1's operation ran")
	}
	if st := rt.Stats(); st.Syncs != 1 || st.Barriers != 0 {
		t.Fatalf("Syncs/Barriers = %d/%d, want 1/0", st.Syncs, st.Barriers)
	}
	release()
	rt.EndIsolation()
}

// TestQueueDepthsCountInFlight: a delegate's reported depth is its ledger
// occupancy — everything routed to it that has not FINISHED — so the
// operation it is running, and a drain run it has already popped, still
// count. Placement and the autoscaler read the same number.
func TestQueueDepthsCountInFlight(t *testing.T) {
	for name, cfg := range map[string]Config{
		"static":             {Delegates: 2},
		"stealing":           stealCfg(2, noStealThreshold),
		"recursive":          {Delegates: 2, Recursive: true},
		"recursive+stealing": recStealCfg(2, noStealThreshold),
	} {
		t.Run(name, func(t *testing.T) {
			rt := newTestRuntime(t, cfg)
			rt.BeginIsolation()
			release := startGated(rt, 7) // running, not queued
			owner := rt.ContextFor(7)
			const queued = 5
			for i := 0; i < queued; i++ {
				rt.Delegate(7, func(int) {})
			}
			depths := rt.QueueDepths(nil)
			if len(depths) != 2 {
				t.Fatalf("QueueDepths reported %d delegates, want 2", len(depths))
			}
			if got := depths[owner-1]; got != queued+1 {
				t.Errorf("depth of delegate %d = %d with 1 operation running and %d queued, want %d", owner, got, queued, queued+1)
			}
			if got := depths[2-owner]; got != 0 {
				t.Errorf("idle delegate reports depth %d", got)
			}
			release()
			rt.EndIsolation()
			for i, d := range rt.QueueDepths(nil) {
				if d != 0 {
					t.Errorf("delegate %d reports depth %d after the barrier", i+1, d)
				}
			}
		})
	}
}
