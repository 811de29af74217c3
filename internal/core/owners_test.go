package core

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// Unit tests for placement and the whole-set handoff protocol (owners.go):
// the owner table, the multi-producer quiescence check against the
// sent/exec ledger and the steal trigger. The shapes are built by hand
// (gated operations pin a delegate with an observable backlog, place()
// homes a set where first touch would not) so every assertion is
// structural, not timing-dependent. The single-producer shapes live in
// steal_test.go.

// TestRecursiveNoStealWhileInFlight pins the safety half of the
// multi-producer protocol: a set whose newest operation — issued by a
// DELEGATE producer, through its own lane — is still queued on the pinned
// owner must not move, no matter how loaded that owner is, because the
// producer's recorded lane position is not covered by the owner's exec.
func TestRecursiveNoStealWhileInFlight(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	rt.BeginIsolation()
	place(rt, 1, 2) // the producer op's set, on delegate 2
	place(rt, 5, 3)

	release1 := startGated(rt, 3) // pin delegate 1 (idle pool: lowest id)
	// Hold a deeper backlog on delegate 3, so set 0's first touch from
	// context 2 (never its own delegate) lands behind the gate on delegate 1.
	release3 := startGated(rt, 5)
	rt.Delegate(5, func(int) {})
	var order []int
	var owners [2]int
	done := make(chan struct{})
	rt.Delegate(1, func(ctx int) { // runs on delegate 2: the producer
		owners[0] = rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 1) })
		release3()
		for rt.delegates[2].occupancy() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
		// Owner occupancy >= threshold and a thief (delegate 3) is idle,
		// but op 1 above is still queued behind the gate: no handoff.
		owners[1] = rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 2) })
		close(done)
	})
	<-done
	if owners[0] != 1 || owners[1] != 1 {
		t.Fatalf("in-flight set routed to %v, want [1 1]", owners)
	}
	release1()
	rt.EndIsolation()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("per-set order = %v, want [1 2]", order)
	}
	if st := rt.Stats(); st.Steals != 0 {
		t.Fatalf("Steals = %d, want 0 (set was in flight)", st.Steals)
	}
}

// TestRecursiveStealMultiProducerHandoff is the positive multi-producer
// case: a set produced by a delegate context migrates at its quiescent
// boundary — the producer's recorded lane position is covered by the
// victim's per-lane executed counter — and lands on the idle third
// delegate, preserving per-set order across the handoff.
func TestRecursiveStealMultiProducerHandoff(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	rt.BeginIsolation()
	place(rt, 1, 2) // the producer ops' set; sets 0 and 3 first-touch onto delegate 1

	var order []int
	step1 := make(chan struct{})
	rt.Delegate(1, func(ctx int) { // producer runs on delegate 2
		rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 1) })
		close(step1)
	})
	<-step1
	waitExec(t, rt, 1, 2, 1) // set 0's op (lane: delegate 2 -> 1) executed

	release := startGated(rt, 3) // pin delegate 1: loaded victim
	var stolenTo atomic.Int64
	step2 := make(chan struct{})
	rt.Delegate(1, func(ctx int) {
		stolenTo.Store(int64(rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 2) })))
		close(step2)
	})
	<-step2
	release()
	rt.EndIsolation()

	if got := stolenTo.Load(); got != 3 {
		t.Fatalf("quiescent delegate-produced set routed to %d, want stolen to idle delegate 3", got)
	}
	if got := ownerOf(rt, 0); got != 3 {
		t.Fatalf("owner table has set 0 on %d, want 3", got)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("per-set order across handoff = %v, want [1 2]", order)
	}
	st := rt.Stats()
	if st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}
}

// TestStealTrigger: the one rule, at its two constants — a quiescent set
// leaves an owner with at least stealThreshold outstanding operations for a
// peer whose occupancy times stealRatio is at most the owner's.
func TestStealTrigger(t *testing.T) {
	for _, tc := range []struct {
		name          string
		victim, thief int
		want          int // where set 200's next delegation lands
	}{
		{"victim 4, thief idle", 4, 0, 2},
		{"victim 4, thief 1", 4, 1, 2},
		{"victim 3: below threshold", 3, 0, 1},
		{"victim 4, thief 2: no gap", 4, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newTestRuntime(t, Config{Delegates: 2, Stealing: true})
			rt.BeginIsolation()
			defer rt.EndIsolation() // runs after the gates below open
			place(rt, 200, 1)
			place(rt, 100, 1)
			place(rt, 300, 2)
			rt.Delegate(200, func(int) {})
			waitExec(t, rt, 1, ProgramContext, 1) // set 200 quiescent on delegate 1
			// Occupancy n: one gated operation running, n-1 queued behind it.
			load := func(set uint64, n int) (release func()) {
				if n == 0 {
					return func() {}
				}
				release = startGated(rt, set)
				for i := 1; i < n; i++ {
					rt.Delegate(set, func(int) {})
				}
				return release
			}
			defer load(100, tc.victim)()
			defer load(300, tc.thief)()
			if ctx := rt.Delegate(200, func(int) {}); ctx != tc.want {
				t.Fatalf("set 200 delegated to %d, want %d", ctx, tc.want)
			}
			if got, want := rt.Stats().Steals, uint64(tc.want-1); got != want {
				t.Fatalf("Steals = %d, want %d", got, want)
			}
		})
	}
}

// TestExplicitThresholdNotAdaptive: Config.StealThreshold, the suites' seam,
// is what the trigger compares against as given; zero selects the constant.
func TestExplicitThresholdNotAdaptive(t *testing.T) {
	if got := (Config{Stealing: true}).withDefaults().StealThreshold; got != stealThreshold {
		t.Fatalf("default threshold = %d, want the constant %d", got, stealThreshold)
	}
	if got := (Config{Stealing: true, StealThreshold: 7}).withDefaults().StealThreshold; got != 7 {
		t.Fatalf("explicit threshold = %d, want 7", got)
	}
}

// TestOwnerTableGrowth: the uint64-specialized owner table keeps every
// entry findable across bucket-array growth and publish races.
func TestOwnerTableGrowth(t *testing.T) {
	tbl := newOwnerTable(0)
	const n = minOwnerBuckets * 4 // forces two grows
	for i := uint64(0); i < n; i++ {
		e := newSetEntry(int(i%4) + 1)
		if got := tbl.insert(i*0x10001, e); got != e {
			t.Fatalf("insert %d adopted a foreign entry", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		e := tbl.lookup(i * 0x10001)
		if e == nil || e.owner.Load() != int32(i%4)+1 {
			t.Fatalf("lookup %d after growth = %v", i, e)
		}
	}
	if tbl.lookup(0xdeadbeef) != nil {
		t.Fatal("lookup of absent set returned an entry")
	}
	// Racing insert of an existing set adopts the published entry.
	if got := tbl.insert(0x10001, newSetEntry(9)); got.owner.Load() == 9 {
		t.Fatal("duplicate insert replaced the published entry")
	}
	if tbl.len() != n {
		t.Fatalf("len %d, want %d", tbl.len(), n)
	}
	// A table sized for what the last epoch held never rehashes.
	sized := newOwnerTable(n)
	before := sized.buckets.Load()
	for i := uint64(0); i < n; i++ {
		sized.insert(i, newSetEntry(1))
	}
	if sized.buckets.Load() != before {
		t.Fatal("pre-sized table grew while holding the size it was built for")
	}
}

// TestSetEntrySize: one producer per set per epoch keeps a set's entry to
// an owner, a producer, one lane position and the producing mark — the
// owner table allocates one per set per epoch, the serving tier's included.
func TestSetEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(setEntry{}); got > 24 {
		t.Fatalf("setEntry is %d bytes, want at most 24", got)
	}
}

// TestRecursiveStealingOrderStress hammers the gated handoff dance with a
// delegate producer, checking per-set program order end to end across
// repeated migrations: each iteration pins whichever of delegates 1 and 3
// currently owns set 0 (the CI engine-stress job runs this under -race).
func TestRecursiveStealingOrderStress(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	var log0 []int
	var gateOps atomic.Int64
	n0 := 0
	rt.BeginIsolation()
	place(rt, 1, 2) // the producer ops' set: context 2 produces set 0
	place(rt, 101, 1)
	place(rt, 103, 3) // the gate sets
	place(rt, 0, 1)
	const iters = 50
	for iter := 0; iter < iters; iter++ {
		gate := uint64(100 + ownerOf(rt, 0))
		release := startGated(rt, gate)
		done := make(chan struct{})
		rt.Delegate(1, func(ctx int) { // producer on delegate 2
			for j := 0; j < 4; j++ {
				v := n0
				n0++
				rt.DelegateFrom(ctx, 0, func(int) { log0 = append(log0, v) })
			}
			close(done)
		})
		<-done
		rt.Delegate(gate, func(int) { gateOps.Add(1) })
		release()
		rt.barrier()
	}
	rt.EndIsolation()
	if len(log0) != n0 || gateOps.Load() != iters {
		t.Fatalf("lost operations: |log0|=%d want %d, gate ops %d want %d", len(log0), n0, gateOps.Load(), iters)
	}
	for i, v := range log0 {
		if v != i {
			t.Fatalf("set 0 order broken at %d: got %d", i, v)
		}
	}
	if st := rt.Stats(); st.Steals < iters/2 {
		t.Fatalf("Steals = %d, want the set handed across on (nearly) every one of %d iterations", st.Steals, iters)
	}
}

// TestRecursiveFirstTouchOffOwnProducer: a set whose FIRST delegation
// comes from a delegate context must never be placed on that same delegate
// — the rebalancer never runs on the first-touch path, so the operation
// would self-enqueue and a producer blocking on it (as here) deadlocks:
// nothing ever moves the set off again. Delegates=2, both
// idle: by occupancy alone set 200 would tie onto delegate 1, where its
// producer (set 100's operation) is running.
func TestRecursiveFirstTouchOffOwnProducer(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(2, noStealThreshold))
	rt.BeginIsolation()

	var routed atomic.Int64
	done := make(chan struct{})
	go func() {
		rt.Delegate(100, func(ctx int) { // runs on delegate 1
			nestedRan := make(chan struct{})
			routed.Store(int64(rt.DelegateFrom(ctx, 200, func(int) { close(nestedRan) })))
			<-nestedRan // block mid-operation on the first-touch delegation
		})
		rt.EndIsolation()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("first-touch delegation onto its producer's own delegate deadlocked")
	}
	if got := routed.Load(); got != 2 {
		t.Fatalf("first-touch set routed to %d, want re-homed to delegate 2", got)
	}
	if got := ownerOf(rt, 200); got != 2 {
		t.Fatalf("owner table has set 200 on %d, want 2", got)
	}
}

// TestReservedSetIDChecked: Checked mode rejects the engine's reserved
// pool-task sentinel id in every configuration — a user set named
// ^uint64(0) is never poisoned or dropped after a fault, and its nested
// delegations would never pin it on its owner.
func TestReservedSetIDChecked(t *testing.T) {
	for name, cfg := range map[string]Config{
		"static":             {Delegates: 2},
		"least-loaded":       stealCfg(2, noStealThreshold),
		"stealing":           stealCfg(2, 1),
		"recursive":          {Delegates: 2, Recursive: true},
		"recursive+stealing": recStealCfg(2, noStealThreshold),
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Checked = true
			rt := newTestRuntime(t, cfg)
			rt.BeginIsolation()
			defer rt.EndIsolation()
			defer func() {
				if recover() == nil {
					t.Fatal("Checked mode accepted the reserved set id ^uint64(0)")
				}
			}()
			rt.Delegate(^uint64(0), func(int) {})
		})
	}
}

// TestRecursiveProducingSetNotStolen pins the leaf-only rule: on one loaded
// victim, a quiescent set whose operation delegated this epoch stays on its
// owner — moving it would give its nested set a second producer — while a
// quiescent leaf set beside it is stolen. Delegates=3, both sets produced
// by the program context and pre-placed on delegate 1.
func TestRecursiveProducingSetNotStolen(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	rt.BeginIsolation()
	place(rt, 100, 1) // producing set
	place(rt, 200, 1) // leaf set
	place(rt, 400, 1) // the gate

	// One operation each, the second sent once the first has run: with
	// delegate 1 busy the empty set 200 would already be stolen.
	rt.Delegate(100, func(ctx int) { rt.DelegateFrom(ctx, 300, func(int) {}) })
	waitExec(t, rt, 1, ProgramContext, 1)
	rt.Delegate(200, func(int) {})
	waitExec(t, rt, 1, ProgramContext, 2)
	nested := ownerOf(rt, 300)
	if nested == 1 || nested == 0 {
		t.Fatalf("nested set 300 first-touched onto %d, want a peer of delegate 1", nested)
	}
	waitExec(t, rt, nested, 1, 1) // the nested operation has executed too

	release := startGated(rt, 400) // loaded victim: occupancy 1 >= threshold 1
	defer rt.EndIsolation()
	defer release()
	if ctx := rt.Delegate(100, func(int) {}); ctx != 1 {
		t.Fatalf("producing set 100 routed to %d, want pinned on its owner 1", ctx)
	}
	if ctx := rt.Delegate(200, func(int) {}); ctx == 1 {
		t.Fatal("quiescent leaf set 200 stayed on the loaded victim, want stolen")
	}
	if st := rt.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1 (the leaf set only)", st.Steals)
	}
}

// TestRecursiveStolenLeafPinnedOnceItDelegates: the mark follows the set,
// not the owner. A leaf set stolen mid-epoch whose next operation delegates
// on the thief is marked there, and stays on the thief however loaded it
// later is.
func TestRecursiveStolenLeafPinnedOnceItDelegates(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	rt.BeginIsolation()
	defer rt.EndIsolation()
	place(rt, 200, 1) // the leaf set
	place(rt, 400, 1) // gate on delegate 1
	place(rt, 500, 2) // gate on delegate 2

	rt.Delegate(200, func(int) {})
	waitExec(t, rt, 1, ProgramContext, 1)
	release1 := startGated(rt, 400)
	ranOn := make(chan int, 1)
	thief := rt.Delegate(200, func(ctx int) {
		rt.DelegateFrom(ctx, 300, func(int) {})
		ranOn <- ctx
	})
	release1()
	if thief != 2 {
		t.Fatalf("quiescent leaf set 200 routed to %d, want stolen to idle delegate 2", thief)
	}
	if ctx := <-ranOn; ctx != thief {
		t.Fatalf("set 200's operation ran on %d, want the thief %d", ctx, thief)
	}
	waitExec(t, rt, thief, ProgramContext, 1)

	release2 := startGated(rt, 500) // the thief is now a loaded victim
	defer release2()
	if ctx := rt.Delegate(200, func(int) {}); ctx != thief {
		t.Fatalf("set 200 routed to %d after delegating on %d, want pinned there", ctx, thief)
	}
	if st := rt.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}
}
