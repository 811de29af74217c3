package core

import (
	"sync/atomic"
	"testing"
	"time"
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
	rt := &Runtime{cfg: Config{MaxDelegates: 4, Recursive: true}}
	tbl := newOwnerTable(0)
	const n = minOwnerBuckets * 4 // forces two grows
	for i := uint64(0); i < n; i++ {
		e := rt.newSetEntry(int(i%4) + 1)
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
	if got := tbl.insert(0x10001, rt.newSetEntry(9)); got.owner.Load() == 9 {
		t.Fatal("duplicate insert replaced the published entry")
	}
	seen := 0
	tbl.forEach(func(uint64, *setEntry) { seen++ })
	if seen != n || tbl.len() != n {
		t.Fatalf("forEach visited %d entries, len %d, want %d", seen, tbl.len(), n)
	}
	// A table sized for what the last epoch held never rehashes.
	sized := newOwnerTable(n)
	before := sized.buckets.Load()
	for i := uint64(0); i < n; i++ {
		sized.insert(i, rt.newSetEntry(1))
	}
	if sized.buckets.Load() != before {
		t.Fatal("pre-sized table grew while holding the size it was built for")
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

// TestRecursivePreciseOutboundVeto pins the safety half of the per-set
// outbound ledger: a set whose OWN operations delegated onward must not
// migrate while that outbound traffic is uncovered — and must migrate as
// soon as it is covered, regardless of the rest of the victim's lanes.
// Delegates=3, pre-placed: set 1 (the producer ops) on delegate 2, sets 0
// and 3 on delegate 1, sets 2 and 5 on delegate 3.
func TestRecursivePreciseOutboundVeto(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	rt.BeginIsolation()
	for set, owner := range map[uint64]int{1: 2, 0: 1, 3: 1, 2: 3, 5: 3} {
		place(rt, set, owner)
	}

	// Pin delegate 3 so set 0's nested delegation to set 5 stays queued.
	release3 := startGated(rt, 2)

	// Set 0's first op (produced from delegate 2) delegates to set 5 on
	// the gated delegate 3 — set 0's own outbound traffic.
	// The producer op stays in flight until that delegation has routed:
	// delegate 2 must not look idle, or the empty pre-placed set 5 would be
	// stolen onto it off the loaded delegate 3.
	step1, routed5 := make(chan struct{}), make(chan struct{})
	rt.Delegate(1, func(ctx int) {
		rt.DelegateFrom(ctx, 0, func(inner int) {
			rt.DelegateFrom(inner, 5, func(int) {})
			close(routed5)
		})
		<-routed5
		close(step1)
	})
	<-step1
	waitExec(t, rt, 1, 2, 1) // set 0's op itself has executed

	e := rt.owners.Load().lookup(0)
	if got := e.outPos[2].Load(); got != 1 {
		t.Fatalf("set 0 outbound ledger position for delegate 3 = %d, want 1", got)
	}

	// Loaded victim, quiescent set — but set 0's outbound is uncovered:
	// the migration must be vetoed.
	release1 := startGated(rt, 3)
	step2 := make(chan struct{})
	var routed atomic.Int64
	rt.Delegate(1, func(ctx int) {
		routed.Store(int64(rt.DelegateFrom(ctx, 0, func(int) {})))
		close(step2)
	})
	<-step2
	if got := routed.Load(); got != 1 {
		t.Fatalf("set 0 with uncovered outbound routed to %d, want vetoed on owner 1", got)
	}
	release1()
	st := rt.Stats()
	if st.Steals != 0 {
		t.Fatalf("Steals = %d, want 0 (outbound uncovered)", st.Steals)
	}
	if st.OutboundVetoes == 0 {
		t.Fatal("OutboundVetoes = 0 after a vetoed migration")
	}
	if st.OutboundTracked == 0 {
		t.Fatal("OutboundTracked = 0 after ledger stamps")
	}

	// Cover the outbound traffic (unpin delegate 3, let set 5's op run),
	// re-load the victim, and the same delegation must now migrate.
	release3()
	waitExec(t, rt, 3, 1, 1) // set 5's op (lane: delegate 1 -> 3) executed
	waitExec(t, rt, 1, 2, 2) // set 0's second op executed
	release1 = startGated(rt, 3)
	step3 := make(chan struct{})
	rt.Delegate(1, func(ctx int) {
		routed.Store(int64(rt.DelegateFrom(ctx, 0, func(int) {})))
		close(step3)
	})
	<-step3
	release1()
	rt.EndIsolation()
	if got := routed.Load(); got == 1 {
		t.Fatal("set 0 still vetoed after its outbound traffic was covered")
	}
	if got := e.outPos[2].Load(); got != 0 {
		t.Fatalf("outbound ledger not rebased at migration: outPos[2] = %d, want 0", got)
	}
	if st := rt.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}
}

// TestRecursiveFirstTouchOffOwnProducer: a set whose FIRST delegation
// comes from a delegate context must never be placed on that same delegate
// — the rebalancer never runs on the first-touch path, so the operation
// would self-enqueue and a producer blocking on it (as here) deadlocks with
// no later delegation ever arriving to evacuate the set. Delegates=2, both
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
// ^uint64(0) is never poisoned or dropped after a fault, and would have its
// nested delegations silently left out of the outbound ledger.
func TestReservedSetIDChecked(t *testing.T) {
	for name, cfg := range map[string]Config{
		"static":             {Delegates: 2},
		"least-loaded":       {Delegates: 2, Policy: LeastLoaded},
		"stealing":           stealCfg(2, noStealThreshold),
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

// TestRecursiveHandoverOffOwnProducer: a producer handover that lands on
// the set's own delegate (e.g. the producing set migrated onto the delegate
// where this nested set lives) must evacuate the set — even with history —
// as soon as the safety conditions (quiescence + victim outbound lanes
// drained) hold, here on the very first delegation. A self-delegation
// placement the program didn't choose is hazardous: the producer's
// operations may block waiting on the set's, and the owner would then
// never drain its own lane.
func TestRecursiveHandoverOffOwnProducer(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(2, noStealThreshold)) // no occupancy steals
	rt.BeginIsolation()

	var order []int
	// Set 200 (first touch, idle pool: delegate 1) gets history from the
	// program.
	rt.Delegate(200, func(int) { order = append(order, 1) })
	waitExec(t, rt, 1, ProgramContext, 1)

	// Handover to delegate 1's own context: the producing op (set 100,
	// idle pool again: delegate 1) delegates to set 200 from context 1.
	var routed atomic.Int64
	done := make(chan struct{})
	rt.Delegate(100, func(ctx int) {
		routed.Store(int64(rt.DelegateFrom(ctx, 200, func(int) { order = append(order, 2) })))
		close(done)
	})
	<-done
	rt.EndIsolation()

	if got := routed.Load(); got != 2 {
		t.Fatalf("handover onto own producer routed to %d, want re-homed to delegate 2", got)
	}
	if got := ownerOf(rt, 200); got != 2 {
		t.Fatalf("owner table has set 200 on %d, want 2", got)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("per-set order across forced re-home = %v, want [1 2]", order)
	}
	if st := rt.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1 (forced re-home is a migration)", st.Steals)
	}
}

// TestRecursiveStealResetsStaleProducerPositions regresses the
// handover -> steal -> handover shape: lastPos values recorded by FORMER
// producers are lane positions relative to the OLD owner's counters, so a
// migration must zero them. Left stale, quiescentOn compares them against
// the new owner's unrelated laneExec, the set looks non-quiescent forever
// (no further handoff can ever fire), and the next legal producer handover
// trips the Checked-mode serializer-violation panic on a correct program.
func TestRecursiveStealResetsStaleProducerPositions(t *testing.T) {
	cfg := recStealCfg(3, 1)
	cfg.Checked = true
	rt := newTestRuntime(t, cfg)
	rt.BeginIsolation()
	place(rt, 1, 2) // the producer ops' set

	var order []int
	// The program produces set 0's first op (recording a position in
	// delegate 1's program lane), then hands the producer role to delegate
	// 2's context at the quiescent boundary.
	rt.Delegate(0, func(int) { order = append(order, 1) })
	waitExec(t, rt, 1, ProgramContext, 1)
	step1 := make(chan struct{})
	rt.Delegate(1, func(ctx int) { // producer op runs on delegate 2
		rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 2) })
		close(step1)
	})
	<-step1
	waitExec(t, rt, 1, 2, 1)

	// Steal: pin delegate 1 (set 3, idle-pool first touch) so it is a loaded victim,
	// then delegate to the quiescent set 0 from its current producer.
	release := startGated(rt, 3)
	var stolenTo atomic.Int64
	step2 := make(chan struct{})
	rt.Delegate(1, func(ctx int) {
		stolenTo.Store(int64(rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 3) })))
		close(step2)
	})
	<-step2
	release()
	if got := stolenTo.Load(); got != 3 {
		t.Fatalf("set 0 routed to %d, want stolen to idle delegate 3", got)
	}

	// The migration must have zeroed the former producer's position — it
	// described delegate 1's lanes, which the new owner knows nothing about.
	e := rt.owners.Load().lookup(0)
	if pos := e.lastPos[ProgramContext].Load(); pos != 0 {
		t.Fatalf("former producer's lastPos = %d after migration, want 0", pos)
	}

	// Hand the producer role back to the program context at the new owner's
	// quiescent boundary: a legal handover Checked mode must accept (stale
	// positions would read as in-flight work here and panic).
	waitExec(t, rt, 3, 2, 1)
	rt.Delegate(0, func(int) { order = append(order, 4) })
	rt.EndIsolation()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("per-set order = %v, want [1 2 3 4]", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("per-set order = %v, want [1 2 3 4]", order)
	}
}
