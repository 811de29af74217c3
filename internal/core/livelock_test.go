package core

import (
	"testing"
	"time"
)

// Livelock regression stress for the per-set outbound ledger. The shape is
// a residual liveness window of whole-set migration, built
// deterministically (Delegates=3; sets 2, 3 and 5 are pre-placed, set 0 is
// first-touched while every delegate is idle and lands on delegate 1):
//
//   - set 0 gets one executed operation from the program context, so it has
//     history and a recorded producer;
//   - delegate 3 is pinned by a gated operation (set 2), and the parent
//     operation (set 3, running ON delegate 1) first delegates to set 5
//     (homed on delegate 3), planting outbound traffic in delegate 3's
//     lane 1 that stays un-executed while the gate holds;
//   - the parent then delegates to set 0 from context 1 — a producer
//     handover that lands the set on its own producer's delegate. The
//     engine must evacuate it (self-delegations the producer blocks on are
//     placements the program didn't write);
//   - the parent blocks mid-operation until the set-0 operation runs.
//
// A migration rule that demanded ALL of the victim's outbound lanes drained
// would veto the evacuation on the UNRELATED set-5 traffic still parked
// behind the gate, the set-0 operation would self-enqueue into delegate 1's
// own lane, and the parent would block forever on work only delegate 1
// could drain, with no further delegation ever arriving to retry the
// evacuation. The per-set ledger checks only set 0's OWN outbound traffic
// (none), so the evacuation fires before the push, the operation lands on
// idle delegate 2, and the program completes.
func TestRecursiveSelfDelegationLivelockClosed(t *testing.T) {
	rt := New(recStealCfg(3, noStealThreshold)) // no occupancy steals: isolate the forced path
	gateRelease := make(chan struct{})
	parentDone := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.BeginIsolation()
		place(rt, 2, 3)
		place(rt, 5, 3)
		place(rt, 3, 1)

		// History for set 0 on delegate 1, produced by the program context.
		if got := rt.Delegate(0, func(int) {}); got != 1 {
			t.Errorf("set 0 first-touched onto delegate %d, want 1", got)
		}
		for rt.delegates[0].exec[ProgramContext].Load() < 1 {
			time.Sleep(50 * time.Microsecond)
		}

		// Pin delegate 3 behind a gate.
		gateStarted := make(chan struct{})
		rt.Delegate(2, func(int) { close(gateStarted); <-gateRelease })
		<-gateStarted

		// Parent operation on delegate 1.
		rt.Delegate(3, func(ctx int) {
			// Unrelated outbound traffic, parked behind the gate.
			rt.DelegateFrom(ctx, 5, func(int) {})
			// Producer handover of set 0 onto its own producer's delegate;
			// then block mid-operation on the nested delegation.
			nestedRan := make(chan struct{})
			rt.DelegateFrom(ctx, 0, func(int) { close(nestedRan) })
			<-nestedRan
			close(parentDone)
		})

		<-parentDone
		close(gateRelease) // unpin delegate 3 so the barrier can pass
		rt.EndIsolation()
		rt.Terminate()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// Everything is leaked deliberately: it is deadlocked by construction.
		t.Fatal("self-delegation scenario livelocked under the per-set outbound ledger")
	}
	if got := ownerOf(rt, 0); got == 1 {
		t.Fatalf("set 0 still owned by its producer's delegate 1 after the forced evacuation")
	}
	if rt.Stats().ForcedEvacs == 0 {
		t.Fatal("scenario completed without a forced evacuation (shape no longer exercises the window)")
	}
}
