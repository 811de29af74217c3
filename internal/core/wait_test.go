package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The program context's one wait (watchdog.go): a marker is a ledger
// position, a full program lane is a predicate, and every wait parks on
// context 0's wake channel.

// TestProgramLaneFullWait: a 20,000-delegation stream through a 32-slot
// program lane arrives in order and never spills, and the program context
// waits for room on the way — parked with the lane full, woken by the
// delegate's pops.
func TestProgramLaneFullWait(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1, QueueCapacity: 2})
	if lane := rt.ProgramLaneCap(); lane != 32 {
		t.Fatalf("program lane has %d slots, want 32", lane)
	}
	const n = 20000
	next, outOfOrder := 0, -1 // the delegate's alone until the barrier
	var parked atomic.Bool
	rt.BeginIsolation()
	for i := 0; i < n; i++ {
		rt.Delegate(1, func(int) {
			if i != next && outOfOrder < 0 {
				outOfOrder = i
			}
			next++
			if i%1000 == 0 {
				time.Sleep(200 * time.Microsecond) // the lane fills behind it
			}
			if rt.roomOn.Load() == 1 && rt.prog.sleep.Load() == delegateSleeping {
				parked.Store(true)
			}
		})
	}
	rt.EndIsolation()
	if outOfOrder >= 0 || next != n {
		t.Fatalf("ran %d of %d delegations, first out of order: %d", next, n, outOfOrder)
	}
	if st := rt.Stats(); st.Spills != 0 {
		t.Errorf("Spills = %d, want 0: the program context pushes only into room", st.Spills)
	}
	if !parked.Load() {
		t.Error("the program context never parked waiting for room")
	}
}

// TestWatchdogFiresOnFullLane: a program context waiting for room behind a
// wedged delegate is a wedge like any other, and the dump says what it
// waits for.
func TestWatchdogFiresOnFullLane(t *testing.T) {
	rt := New(Config{Delegates: 1, QueueCapacity: 2, Checked: true, Watchdog: 50 * time.Millisecond})
	rt.BeginIsolation()
	release := startGated(rt, 1)
	defer func() {
		release()
		rt.Terminate()
	}()
	lane := rt.ProgramLaneCap()
	for i := 0; i < lane; i++ {
		rt.Delegate(1, func(int) {})
	}
	defer func() {
		msg, _ := recover().(string)
		// The gated operation, a lane's worth behind it and the one waiting
		// for room are sent; nothing has executed.
		for _, want := range []string{"watchdog", "no delegate progress", "waiting=room on delegate 1\n", fmt.Sprintf(" 0:%d/0", lane+2)} {
			if !strings.Contains(msg, want) {
				t.Errorf("watchdog message missing %q:\n%s", want, msg)
			}
		}
		// The waiting delegation was counted but never pushed: take it out
		// of the ledger so that Terminate's barrier balances.
		sent := &rt.delegates[0].sent[ProgramContext].n
		sent.Store(sent.Load() - 1)
		rt.inIsolation = false // unwind the epoch the panic aborted
	}()
	rt.Delegate(1, func(int) {})
	t.Fatal("Delegate returned with the program lane full behind a wedged delegate")
}

// TestWaitStress interleaves the three things that wake the program
// context — a served marker (one reclaim in ten steps), a shed into its
// inbox (barriers on a non-stealing pool) and slots freed on a full program
// lane (two-slot rings, chains up to 100 long) — and checks the per-set
// logs against Sequential.
func TestWaitStress(t *testing.T) {
	cfgs := map[string]Config{
		"one-delegate":  {Delegates: 1, QueueCapacity: 2},
		"two-delegates": {Delegates: 2, QueueCapacity: 2},
		"stealing":      {Delegates: 3, QueueCapacity: 2, Policy: LeastLoaded, Stealing: true, StealThreshold: 2},
	}
	trials := 3
	if testing.Short() {
		trials = 1
	}
	var syncs uint64
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(2800 + trial)))
		sets := 1 + r.Intn(12)
		ops := genStress(r, sets, 1500, 10)
		want, _ := runStress(ops, sets, Config{Sequential: true})
		for name, cfg := range cfgs {
			got, st := runStress(ops, sets, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: per-set logs differ from Sequential", trial, name)
			}
			syncs += st.Syncs
		}
	}
	if syncs == 0 {
		t.Error("no reclaim waited on a marker")
	}
}
