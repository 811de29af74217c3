package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// faultCfg is the flat-engine containment fixture: first-touch placement,
// so the owner table runs alongside the poison table, with no steal moving
// a set.
func faultCfg() Config {
	return stealCfg(2, neverStealThreshold)
}

// poisoned reports whether set is in the current epoch's poison table.
func poisoned(rt *Runtime, set uint64) bool {
	fs := rt.faults.Load()
	return fs != nil && fs.lookup(set) != nil
}

// TestFlatPanicContainment drives the whole flat containment story: a
// panicking operation does not kill the delegate, poisons its set, later
// delegations to the set are dropped-but-counted, sibling sets are
// untouched, and the fault surfaces through the poison table, Faults and
// the Stats counters.
func TestFlatPanicContainment(t *testing.T) {
	rt := newTestRuntime(t, faultCfg())
	rt.BeginIsolation()

	var pre, post, sibling atomic.Uint64
	rt.Delegate(10, func(int) { pre.Add(1) })
	rt.Delegate(10, func(int) { pre.Add(1) })
	rt.Delegate(10, func(int) { panic("boom") })
	const dropped = 5
	for i := 0; i < dropped; i++ {
		rt.Delegate(10, func(int) { post.Add(1) })
	}
	for i := 0; i < 4; i++ {
		rt.Delegate(20, func(int) { sibling.Add(1) })
	}
	rt.EndIsolation()

	if pre.Load() != 2 {
		t.Errorf("prefix ops ran %d times, want 2", pre.Load())
	}
	if post.Load() != 0 {
		t.Errorf("ops after the fault ran %d times, want 0", post.Load())
	}
	if sibling.Load() != 4 {
		t.Errorf("sibling set ran %d ops, want 4", sibling.Load())
	}
	if !poisoned(rt, 10) {
		t.Error("faulted set not reported poisoned")
	}
	if poisoned(rt, 20) {
		t.Error("sibling set reported poisoned")
	}
	faults := rt.Faults()
	if len(faults) != 1 {
		t.Fatalf("Faults() returned %d records, want 1", len(faults))
	}
	f := faults[0]
	if f.Set != 10 || f.Value != "boom" || f.Epoch != 1 {
		t.Errorf("fault = {Set:%d Value:%v Epoch:%d}, want {10 boom 1}", f.Set, f.Value, f.Epoch)
	}
	if f.Ctx < 1 || f.Ctx > 2 {
		t.Errorf("fault Ctx = %d, want a delegate context", f.Ctx)
	}
	if !strings.Contains(string(f.Stack), "panic") {
		t.Error("fault stack does not include the panicking frames")
	}
	st := rt.Stats()
	if st.Panics != 1 || st.PoisonedSets != 1 || st.DroppedOps != dropped {
		t.Errorf("stats = {Panics:%d PoisonedSets:%d DroppedOps:%d}, want {1 1 %d}",
			st.Panics, st.PoisonedSets, st.DroppedOps, dropped)
	}
}

// TestRecursivePanicContainment is the recursive-engine mirror: the fault
// is contained on a lane drain, the producer-side recEnqueue drop keeps
// the quiescence ledgers consistent, and the barrier still closes.
func TestRecursivePanicContainment(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Recursive: true})
	rt.BeginIsolation()

	var pre, post, sibling atomic.Uint64
	rt.Delegate(10, func(int) { pre.Add(1) })
	rt.Delegate(10, func(int) { panic("rboom") })
	for i := 0; i < 3; i++ {
		rt.Delegate(10, func(int) { post.Add(1) })
	}
	for i := 0; i < 4; i++ {
		rt.Delegate(11, func(int) { sibling.Add(1) })
	}
	rt.EndIsolation()

	if pre.Load() != 1 || post.Load() != 0 || sibling.Load() != 4 {
		t.Errorf("pre/post/sibling = %d/%d/%d, want 1/0/4", pre.Load(), post.Load(), sibling.Load())
	}
	if !poisoned(rt, 10) || poisoned(rt, 11) {
		t.Errorf("poisoned(10)=%v poisoned(11)=%v, want true/false", poisoned(rt, 10), poisoned(rt, 11))
	}
	st := rt.Stats()
	if st.Panics != 1 || st.PoisonedSets != 1 || st.DroppedOps != 3 {
		t.Errorf("stats = {Panics:%d PoisonedSets:%d DroppedOps:%d}, want {1 1 3}",
			st.Panics, st.PoisonedSets, st.DroppedOps)
	}
	// Nested delegation from a delegate to a poisoned set is dropped too.
	rt.BeginIsolation()
	rt.Delegate(10, func(int) { pre.Add(1) }) // new epoch: poison cleared
	rt.EndIsolation()
	if pre.Load() != 2 {
		t.Errorf("post-epoch op on previously poisoned set ran %d times, want 2 total", pre.Load())
	}
}

// TestPoisonClearsAtEpochBoundary: poisoning is epoch-scoped, fault
// records are not.
func TestPoisonClearsAtEpochBoundary(t *testing.T) {
	rt := newTestRuntime(t, faultCfg())
	rt.BeginIsolation()
	rt.Delegate(7, func(int) { panic("epoch1") })
	rt.EndIsolation()
	if !poisoned(rt, 7) {
		t.Fatal("set not poisoned after fault")
	}

	rt.BeginIsolation()
	if poisoned(rt, 7) {
		t.Error("poison survived the epoch boundary")
	}
	var ran atomic.Bool
	rt.Delegate(7, func(int) { ran.Store(true) })
	rt.EndIsolation()
	if !ran.Load() {
		t.Error("op on previously poisoned set did not run in the new epoch")
	}
	if faults := rt.Faults(); len(faults) != 1 || faults[0].Set != 7 {
		t.Errorf("Faults() = %+v, want the epoch-1 record of set 7 to persist", faults)
	}
}

// TestCheckedFailFast: in Checked mode a delegation to a poisoned set
// panics at the delegation site with the original fault's stack.
func TestCheckedFailFast(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1, Checked: true})
	rt.BeginIsolation()
	defer rt.EndIsolation()
	rt.Delegate(3, func(int) { panic("checked-boom") })
	rt.SyncSet(3) // make the poison visible to the program context

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Checked delegation to a poisoned set did not panic")
		}
		msg, ok := v.(string)
		if !ok {
			t.Fatalf("recovered %T, want string", v)
		}
		for _, want := range []string{"poisoned set 3", "checked-boom", "original panic stack"} {
			if !strings.Contains(msg, want) {
				t.Errorf("fail-fast message missing %q:\n%s", want, msg)
			}
		}
	}()
	rt.Delegate(3, func(int) {})
}

// TestRunParallelPoolTaskFault: a panicking pool task is contained, the
// barrier closes, the fault is recorded against NoSet, and nothing is
// poisoned.
func TestRunParallelPoolTaskFault(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{Delegates: 2}},
		{"recursive", Config{Delegates: 2, Recursive: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newTestRuntime(t, tc.cfg)
			var ran atomic.Uint64
			tasks := make([]func(int), 4)
			for i := range tasks {
				i := i
				tasks[i] = func(int) {
					if i == 2 {
						panic("pool-boom")
					}
					ran.Add(1)
				}
			}
			rt.RunParallel(tasks)
			if ran.Load() != 3 {
				t.Errorf("%d healthy tasks ran, want 3", ran.Load())
			}
			faults := rt.Faults()
			if len(faults) != 1 || faults[0].Set != NoSet {
				t.Fatalf("faults = %+v, want one record with Set == NoSet", faults)
			}
			st := rt.Stats()
			if st.Panics != 1 || st.PoisonedSets != 0 || st.DroppedOps != 0 {
				t.Errorf("stats = {Panics:%d PoisonedSets:%d DroppedOps:%d}, want {1 0 0}",
					st.Panics, st.PoisonedSets, st.DroppedOps)
			}
		})
	}
}

// TestFaultInjectorSeam: Config.FaultInjector fires on the executing
// delegate before the method body, and its panic is contained exactly like
// a user-code panic.
func TestFaultInjectorSeam(t *testing.T) {
	var calls atomic.Uint64
	cfg := faultCfg()
	cfg.FaultInjector = func(ctx int, set uint64) {
		calls.Add(1)
		if set == 5 && ctx >= 1 {
			panic("injected")
		}
	}
	rt := newTestRuntime(t, cfg)
	rt.BeginIsolation()
	var ran atomic.Bool
	rt.Delegate(5, func(int) { ran.Store(true) })
	rt.Delegate(6, func(int) {})
	rt.EndIsolation()

	if ran.Load() {
		t.Error("method body ran despite the injector firing before it")
	}
	if calls.Load() != 2 {
		t.Errorf("injector called %d times, want 2", calls.Load())
	}
	faults := rt.Faults()
	if len(faults) != 1 || faults[0].Set != 5 || faults[0].Value != "injected" {
		t.Fatalf("Faults() = %+v, want one injected record of set 5", faults)
	}
}

// TestTracePanicEvent: containment emits a TracePanic instant carrying the
// set, faulting context, and isolation epoch.
func TestTracePanicEvent(t *testing.T) {
	cfg := faultCfg()
	cfg.Trace = true
	rt := newTestRuntime(t, cfg)
	rt.BeginIsolation()
	rt.Delegate(9, func(int) { panic("traced") })
	rt.EndIsolation()

	var got []TraceEvent
	for _, ev := range rt.TraceEvents() {
		if ev.Kind == TracePanic {
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("trace has %d TracePanic events, want 1", len(got))
	}
	ev := got[0]
	if ev.Set != 9 || ev.Epoch != 1 || ev.Ctx < 1 {
		t.Errorf("TracePanic = {Ctx:%d Set:%d Epoch:%d}, want delegate ctx, set 9, epoch 1", ev.Ctx, ev.Set, ev.Epoch)
	}
	if ev.Kind.String() != "panic" {
		t.Errorf("TracePanic.String() = %q, want %q", ev.Kind.String(), "panic")
	}
}

// TestWatchdogFires wedges a delegate on purpose (an operation that blocks
// on a channel longer than the bound) and asserts the watchdog turns the
// hung SyncContext into a panic carrying the scheduler-state dump.
func TestWatchdogFires(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"one-lane", Config{Delegates: 2, Watchdog: 50 * time.Millisecond}},
		{"recursive", Config{Delegates: 2, Recursive: true, Watchdog: 50 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.cfg)
			gate := make(chan struct{})
			release := func() {
				close(gate)
				rt.Terminate()
			}
			defer release()

			rt.BeginIsolation()
			ctx := rt.Delegate(1, func(int) { <-gate })

			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("watchdog did not fire on a wedged synchronization")
				}
				msg, ok := v.(string)
				if !ok {
					t.Fatalf("recovered %T, want string", v)
				}
				// The dump names the wedged lane — the operation and the sync
				// object behind it sent, nothing executed — and the marker the
				// program context waits for on it.
				for _, want := range []string{"watchdog", "no delegate progress", "engine: 2 delegates,", " 0:2/0", fmt.Sprintf("waiting=markers %d@2\n", ctx)} {
					if !strings.Contains(msg, want) {
						t.Errorf("watchdog message missing %q:\n%s", want, msg)
					}
				}
				rt.inIsolation = false // unwind the epoch the panic aborted
			}()
			rt.SyncContext(ctx)
			t.Fatal("SyncContext returned while the delegate was wedged")
		})
	}
}

// TestWatchdogQuietWhenProgressing: a workload that keeps publishing
// progress never trips the watchdog, even when the bound is shorter than
// the total run.
func TestWatchdogQuietWhenProgressing(t *testing.T) {
	// Progress is published per drain run, so the bound is sized to a run
	// of drainBatchSize operations (with 3x slack for a loaded host under
	// -race), and each set's chain alone outlasts it. Recursive, because only
	// there can a barrier outlast a bound sized that way: a one-lane delegate
	// asked for work executes all it still holds as a single run.
	const op = time.Millisecond
	cfg := faultCfg()
	cfg.Recursive = true
	cfg.Watchdog = 3 * drainBatchSize * op
	rt := newTestRuntime(t, cfg)
	rt.BeginIsolation()
	for i := 0; i < 4*4*drainBatchSize; i++ {
		rt.Delegate(uint64(i%4), func(int) { time.Sleep(op) })
	}
	rt.EndIsolation() // the barrier outlives the bound; progress keeps it quiet
}

// TestWatchdogDefaults: Checked turns the watchdog on at DefaultWatchdog,
// a negative setting turns it off, and plain builds leave it off.
func TestWatchdogDefaults(t *testing.T) {
	if got := (Config{Checked: true}).withDefaults().Watchdog; got != DefaultWatchdog {
		t.Errorf("Checked default watchdog = %v, want %v", got, DefaultWatchdog)
	}
	if got := (Config{Checked: true, Watchdog: -1}).withDefaults().Watchdog; got != 0 {
		t.Errorf("negative watchdog = %v, want disabled (0)", got)
	}
	if got := (Config{}).withDefaults().Watchdog; got != 0 {
		t.Errorf("plain-build watchdog = %v, want disabled (0)", got)
	}
}
