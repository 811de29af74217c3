package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spsc"
)

// Barrier helping: the program context asks the most occupied delegate for
// work while it waits in a barrier, and the delegate hands it whole sets
// (delegate.go, shed). The tests here force the hand-over instead of hoping
// for it: a holding operation keeps a delegate busy until the program
// context has raised its request, so the next operation boundary is the
// split point and what the delegate holds there is known.

// holdUntilAsked returns an operation that occupies delegate ctx until the
// program context has asked it for work.
func holdUntilAsked(rt *Runtime, ctx int) func(int) {
	return func(int) {
		d := rt.delegates[ctx-1]
		for deadline := time.Now().Add(5 * time.Second); d.shedReq.Load() == 0 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
}

// holdFirst delegates to set 100 an operation that holds delegate 1 until
// it is asked for work, and returns once the delegate is inside it: asked
// any earlier, the delegate would split before it, and the chains after it
// would be dealt the other way round.
func holdFirst(rt *Runtime) {
	started := make(chan struct{})
	hold := holdUntilAsked(rt, 1)
	rt.Delegate(100, func(ctx int) { close(started); hold(ctx) })
	<-started
}

// setLogs records, per set, the operation indices in execution order and
// the contexts they ran on. The slices are appended to without any
// synchronization: per-set order is the only thing keeping two appends to
// one set apart, so the race detector fails any test in which a set's
// chain was split or overtaken.
type setLogs struct {
	idx  map[uint64]*[]int
	ctxs map[uint64]*[]int
}

func newSetLogs(sets ...uint64) *setLogs {
	l := &setLogs{idx: map[uint64]*[]int{}, ctxs: map[uint64]*[]int{}}
	for _, s := range sets {
		l.idx[s], l.ctxs[s] = new([]int), new([]int)
	}
	return l
}

// op returns the i-th operation of set.
func (l *setLogs) op(set uint64, i int) func(int) {
	idx, ctxs := l.idx[set], l.ctxs[set]
	return func(ctx int) {
		*idx = append(*idx, i)
		*ctxs = append(*ctxs, ctx)
	}
}

// checkOrder asserts set ran exactly operations 0..n-1, in order.
func (l *setLogs) checkOrder(t *testing.T, set uint64, n int) {
	t.Helper()
	got := *l.idx[set]
	if len(got) != n {
		t.Fatalf("set %d ran %d operations, want %d: %v", set, len(got), n, got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("set %d out of order at %d: %v", set, i, got)
		}
	}
}

// check is checkOrder for a single epoch, in which a set moves to the
// program context at most once and never back.
func (l *setLogs) check(t *testing.T, set uint64, n int) {
	t.Helper()
	l.checkOrder(t, set, n)
	moved := false
	for i, c := range *l.ctxs[set] {
		if c == ProgramContext {
			moved = true
		} else if moved {
			t.Fatalf("set %d came back from the program context at operation %d: %v", set, i, *l.ctxs[set])
		}
	}
}

func (l *setLogs) ranOn(set uint64, ctx int) int {
	n := 0
	for _, c := range *l.ctxs[set] {
		if c == ctx {
			n++
		}
	}
	return n
}

// TestShedSplitsDoAllEpoch: with one delegate holding eight one-operation
// sets at the split point, every other one moves — sets 2, 4, 6 and 8 (more,
// if the program context runs dry and asks again) — every operation runs
// once, and the program-side counters do not change meaning.
func TestShedSplitsDoAllEpoch(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	sets := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	logs := newSetLogs(sets...)
	rt.BeginIsolation()
	holdFirst(rt)
	for _, s := range sets {
		rt.Delegate(s, logs.op(s, 0))
	}
	rt.EndIsolation()
	for _, s := range sets {
		logs.check(t, s, 1)
	}
	if logs.ranOn(1, 1) != 1 {
		t.Error("set 1 was the delegate's next operation at the split and must stay there")
	}
	for s := uint64(2); s <= 8; s += 2 {
		if logs.ranOn(s, ProgramContext) != 1 {
			t.Errorf("set %d was dealt to the program context at the split, but ran on the delegate", s)
		}
	}
	st := rt.Stats()
	if st.HelpedOps < 4 || st.Sheds < 1 {
		t.Errorf("HelpedOps/Sheds = %d/%d, want at least 4/1", st.HelpedOps, st.Sheds)
	}
	helped := 0
	for _, s := range sets {
		helped += logs.ranOn(s, ProgramContext)
	}
	if uint64(helped) != st.HelpedOps {
		t.Errorf("%d operations ran on context 0, Stats.HelpedOps = %d", helped, st.HelpedOps)
	}
	if st.Delegations != 9 || st.Barriers != 1 || st.Syncs != 0 || st.InlineExecs != 0 {
		t.Errorf("Delegations/Barriers/Syncs/InlineExecs = %d/%d/%d/%d, want 9/1/0/0",
			st.Delegations, st.Barriers, st.Syncs, st.InlineExecs)
	}
	if sent, exec := rt.sentSum(), rt.execSum(); sent != exec {
		t.Errorf("ledger unbalanced after the barrier: sent=%d exec=%d", sent, exec)
	}
	if occ := rt.prog.occupancy(); occ != 0 {
		t.Errorf("inbox holds %d messages after the barrier", occ)
	}
	if req := rt.delegates[0].shedReq.Load(); req != 0 {
		t.Errorf("request word left raised (%d) after the barrier", req)
	}
}

// TestShedMovesWholeChains: chains longer than a drain run, and a chain
// interleaved with others, stay whole. The delegate holds 70 operations of
// set 1, 70 of set 2, then sets 3 and 4 alternating: dealt in order of
// first appearance, 1 and 3 stay and 2 and 4 move, every operation of them.
// Set 3 may move too, whole, if the program context asks again before the
// delegate has started it.
func TestShedMovesWholeChains(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	logs := newSetLogs(1, 2, 3, 4)
	rt.BeginIsolation()
	holdFirst(rt)
	for s := uint64(1); s <= 2; s++ {
		for i := 0; i < 70; i++ {
			rt.Delegate(s, logs.op(s, i))
		}
	}
	for i := 0; i < 20; i++ {
		rt.Delegate(3, logs.op(3, i))
		rt.Delegate(4, logs.op(4, i))
	}
	rt.EndIsolation()
	logs.check(t, 1, 70)
	logs.check(t, 2, 70)
	logs.check(t, 3, 20)
	logs.check(t, 4, 20)
	if n := logs.ranOn(1, ProgramContext); n != 0 {
		t.Errorf("%d operations of set 1 ran on the program context; its chain was the delegate's next operation", n)
	}
	for s, n := range map[uint64]int{2: 70, 4: 20} {
		if got := logs.ranOn(s, ProgramContext); got != n {
			t.Errorf("set %d: %d of %d operations ran on the program context, want the whole chain", s, got, n)
		}
	}
	if n := logs.ranOn(3, ProgramContext); n != 0 && n != 20 {
		t.Errorf("set 3: %d of 20 operations ran on the program context, want none or all", n)
	}
}

// TestShedDealsCostOrderedEpoch: an epoch ordered by cost — the shape of
// freqmine's item list, whose costliest items sit together at one end —
// splits about evenly by cost, not by count. Sixteen one-operation sets of
// weights 16 down to 1: the first split deals the program context every
// other one, 64 of the 136 units, where cutting at the midpoint handed it
// the cheap end, 36. A later split only moves more to the program context.
func TestShedDealsCostOrderedEpoch(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	const sets = 16
	var onProgram [sets]bool
	rt.BeginIsolation()
	holdFirst(rt)
	for s := 0; s < sets; s++ {
		s := s
		rt.Delegate(uint64(s), func(ctx int) { onProgram[s] = ctx == ProgramContext })
	}
	rt.EndIsolation()
	helped, total := 0, 0
	for s, on := range onProgram {
		w := sets - s
		total += w
		if on {
			helped += w
		}
	}
	if helped < 64 {
		t.Errorf("the program context ran %d of %d cost units, want at least 64: %v", helped, total, onProgram)
	}
}

// TestShedSingleSetShedsNothing: one chain cannot be split.
func TestShedSingleSetShedsNothing(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	logs := newSetLogs(5)
	rt.BeginIsolation()
	rt.Delegate(5, holdUntilAsked(rt, 1))
	for i := 0; i < 100; i++ {
		rt.Delegate(5, logs.op(5, i))
	}
	rt.EndIsolation()
	logs.check(t, 5, 100)
	if st := rt.Stats(); st.HelpedOps != 0 || st.Sheds != 0 {
		t.Errorf("HelpedOps/Sheds = %d/%d on a single-set epoch, want 0/0", st.HelpedOps, st.Sheds)
	}
}

// faultyProgram delegates four ten-operation sets in blocks behind a
// holding operation; operation 4 of set 2 panics. On one delegate sets 2
// and 4 are dealt to the program context and run there.
func faultyProgram(rt *Runtime, logs *setLogs) {
	rt.BeginIsolation()
	holdFirst(rt)
	for s := uint64(1); s <= 4; s++ {
		for i := 0; i < 10; i++ {
			op := logs.op(s, i)
			if s == 2 && i == 4 {
				op = func(int) { panic("helped-boom") }
			}
			rt.Delegate(s, op)
		}
	}
	rt.EndIsolation()
}

// TestShedHelpedPanicContained: a helped operation that panics is
// contained on context 0 exactly as on a delegate: its set stops at the
// sequential prefix, its siblings are untouched.
func TestShedHelpedPanicContained(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	logs := newSetLogs(1, 2, 3, 4)
	faultyProgram(rt, logs)
	logs.check(t, 1, 10)
	logs.check(t, 2, 4) // operations 0..3, then the fault, then five dropped
	logs.check(t, 3, 10)
	logs.check(t, 4, 10)
	faults := rt.Faults()
	if len(faults) != 1 || faults[0].Set != 2 || faults[0].Ctx != ProgramContext || faults[0].Value != "helped-boom" {
		t.Fatalf("faults = %+v, want one on set 2 contained on context 0", faults)
	}
	if !strings.Contains(string(faults[0].Stack), "faultyProgram") {
		t.Error("fault stack does not reach the panicking operation")
	}
	st := rt.Stats()
	if st.Panics != 1 || st.PoisonedSets != 1 || st.DroppedOps != 5 {
		t.Errorf("Panics/PoisonedSets/DroppedOps = %d/%d/%d, want 1/1/5", st.Panics, st.PoisonedSets, st.DroppedOps)
	}
	if n := logs.ranOn(4, ProgramContext); n != 10 {
		t.Errorf("sibling set 4: %d of 10 operations ran on the program context", n)
	}
}

// TestShedPoolTasksMoveOneByOne: RunParallel's tasks belong to no set, so
// each is its own unit.
func TestShedPoolTasksMoveOneByOne(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	var ran [9]atomic.Int32
	var onProgram atomic.Int32
	tasks := []func(int){holdUntilAsked(rt, 1)}
	for i := range ran {
		i := i
		tasks = append(tasks, func(ctx int) {
			ran[i].Add(1)
			if ctx == ProgramContext {
				onProgram.Add(1)
			}
		})
	}
	rt.RunParallel(tasks)
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Errorf("task %d ran %d times", i, n)
		}
	}
	if st := rt.Stats(); st.HelpedOps < 4 || uint64(onProgram.Load()) != st.HelpedOps {
		t.Errorf("HelpedOps = %d, %d tasks saw context 0; want at least every other one of the nine", st.HelpedOps, onProgram.Load())
	}
}

// TestShedNeverOutsideBarriers: a Recursive runtime never asks, and a
// reclaim (SyncContext, SyncSet) is the plain wait it always was.
func TestShedNeverOutsideBarriers(t *testing.T) {
	slow := func(int) { time.Sleep(50 * time.Microsecond) }
	t.Run("recursive", func(t *testing.T) {
		rt := newTestRuntime(t, Config{Delegates: 2, Recursive: true})
		rt.BeginIsolation()
		for i := 0; i < 200; i++ {
			rt.Delegate(uint64(i%8), slow)
		}
		rt.EndIsolation()
		if st := rt.Stats(); st.HelpedOps != 0 || st.Sheds != 0 {
			t.Errorf("HelpedOps/Sheds = %d/%d under Recursive, want 0/0", st.HelpedOps, st.Sheds)
		}
	})
	t.Run("reclaim", func(t *testing.T) {
		rt := newTestRuntime(t, Config{Delegates: 1})
		rt.BeginIsolation()
		for i := 0; i < 100; i++ {
			rt.Delegate(uint64(i%8), slow)
		}
		rt.SyncContext(1)
		for i := 0; i < 100; i++ {
			rt.Delegate(uint64(i%8), slow)
		}
		rt.SyncSet(3)
		if st := rt.Stats(); st.HelpedOps != 0 || st.Sheds != 0 || st.Syncs != 2 {
			t.Errorf("HelpedOps/Sheds/Syncs = %d/%d/%d after two reclaims, want 0/0/2", st.HelpedOps, st.Sheds, st.Syncs)
		}
		rt.EndIsolation()
	})
}

// TestShedAcrossTerminate: Terminate finds a burst outstanding and helps
// with it; per-set order holds across the epochs before it.
func TestShedAcrossTerminate(t *testing.T) {
	rt := New(Config{Delegates: 1})
	sets := []uint64{1, 2, 3, 4, 5, 6}
	logs := newSetLogs(sets...)
	next := make(map[uint64]int)
	burst := func(hold int) {
		rt.Delegate(100, holdUntilAsked(rt, hold))
		for _, s := range sets { // in blocks: every other set moves, whole
			for i := 0; i < 10; i++ {
				rt.Delegate(s, logs.op(s, next[s]))
				next[s]++
			}
		}
	}
	rt.BeginIsolation()
	burst(1)
	rt.EndIsolation()
	before := rt.Stats().HelpedOps
	rt.BeginIsolation()
	burst(1)
	rt.Terminate() // closes the epoch with the burst outstanding
	for _, s := range sets {
		logs.checkOrder(t, s, 20)
	}
	if st := rt.Stats(); st.HelpedOps <= before {
		t.Errorf("HelpedOps = %d after Terminate, %d before: Terminate executed nothing itself", st.HelpedOps, before)
	}
}

// TestShedWatchdog: the program context's own execution is progress — a
// helped operation several bounds long keeps the watchdog quiet — and a
// real wedge inside a helping barrier still fires, with the inbox and the
// request words in the dump.
func TestShedWatchdog(t *testing.T) {
	t.Run("quiet", func(t *testing.T) {
		rt := newTestRuntime(t, Config{Delegates: 1, Watchdog: 20 * time.Millisecond})
		long := func(int) { time.Sleep(90 * time.Millisecond) }
		rt.BeginIsolation()
		// Asked before it is inside the holding operation, the delegate would
		// also hold with no request standing, and start its long operation
		// only after the program context has finished its own — past the bound.
		holdFirst(rt)
		rt.Delegate(1, long) // the delegate's next operation: stays
		rt.Delegate(2, long) // the next chain dealt: the program context runs it
		rt.EndIsolation()
		if st := rt.Stats(); st.HelpedOps != 1 {
			t.Errorf("HelpedOps = %d, want 1", st.HelpedOps)
		}
	})
	t.Run("wedge", func(t *testing.T) {
		rt := New(Config{Delegates: 1, Watchdog: 50 * time.Millisecond})
		rt.BeginIsolation()
		// The delegate is wedged inside set 1's operation before the rest is
		// delegated (asked any earlier it would hand set 2 over): it has
		// claimed its lane once, so the later pushes re-raise the pending bit.
		release := startGated(rt, 1)
		defer func() {
			release()
			rt.Terminate()
		}()
		rt.Delegate(2, func(int) {})
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{"watchdog", "program context: helped=0 inbox=0 waiting=markers 1@3\n", "delegate 1: pending=0000000000000001 shedreq=1", " 0:3/0"} {
				if !strings.Contains(msg, want) {
					t.Errorf("watchdog message missing %q:\n%s", want, msg)
				}
			}
			rt.inIsolation = false // unwind the epoch the panic aborted
		}()
		rt.EndIsolation()
		t.Fatal("EndIsolation returned while the delegate was wedged")
	})
}

// TestShedBarrierAllocs: once the inbox and the split buffer have grown, a
// barrier allocates nothing, whether it sheds or not. The epoch is four
// default rings deep, so each shed hands over more than a ring: the inbox
// lane holds it without spilling.
func TestShedBarrierAllocs(t *testing.T) {
	const ops = 4 * spsc.DefaultCapacity
	rt := newTestRuntime(t, Config{Delegates: 1})
	var sink atomic.Uint64
	noop := func(int) { sink.Add(1) }
	hold := holdUntilAsked(rt, 1)
	epoch := func(first func(int), sets uint64) func() {
		return func() {
			rt.BeginIsolation()
			rt.Delegate(0, first)
			for i := uint64(0); i < ops; i++ {
				rt.Delegate(i%sets, noop)
			}
			rt.EndIsolation()
		}
	}
	plain := epoch(noop, 1) // one chain: nothing to hand over
	shedding := epoch(hold, ops)
	for i := 0; i < 20; i++ {
		shedding()
	}
	before := rt.Stats()
	plainAllocs := testing.AllocsPerRun(50, plain)
	mid := rt.Stats()
	shedAllocs := testing.AllocsPerRun(50, shedding)
	after := rt.Stats()
	if mid.Sheds != before.Sheds {
		t.Fatalf("the single-chain epoch shed %d times", mid.Sheds-before.Sheds)
	}
	if after.Sheds-mid.Sheds < 50 {
		t.Fatalf("only %d of 51 measured barriers shed", after.Sheds-mid.Sheds)
	}
	if shedAllocs != 0 || plainAllocs != 0 {
		t.Errorf("a shedding barrier allocates %v, a plain one %v, want 0 and 0", shedAllocs, plainAllocs)
	}
	if after.Spills != 0 || after.HelpedOps-mid.HelpedOps < 50*spsc.DefaultCapacity {
		t.Errorf("Spills = %d, HelpedOps = %d over 51 sheds, want 0 and more than a ring a shed", after.Spills, after.HelpedOps-mid.HelpedOps)
	}
}

// stressOp is one step of a generated program.
type stressOp struct {
	kind int // 0 delegate, 1 end+begin isolation, 2 SyncSet, 3 RunParallel between epochs
	set  uint64
	work int // 0 none, 1 a short spin, 2 a sleep
}

// genStress generates n steps over sets; reclaimPct of every hundred draws
// is a SyncSet.
func genStress(r *rand.Rand, sets, n, reclaimPct int) []stressOp {
	ops := make([]stressOp, 0, n)
	for len(ops) < n {
		switch k := r.Intn(100); {
		case k < 2:
			ops = append(ops, stressOp{kind: 1})
		case k < 2+reclaimPct:
			ops = append(ops, stressOp{kind: 2, set: uint64(r.Intn(sets))})
		case k < 3+reclaimPct:
			ops = append(ops, stressOp{kind: 3})
		default:
			// A chain: a burst of 1..100 operations of one set, so chains
			// both shorter and longer than a drain run occur.
			set, work := uint64(r.Intn(sets)), r.Intn(3)
			for burst := 1 + r.Intn(100)*r.Intn(2); burst > 0; burst-- {
				ops = append(ops, stressOp{set: set, work: work})
			}
		}
	}
	return ops
}

// runStress executes a generated program and returns the per-set logs:
// every operation appends its global index to its set's log, unsynchronized.
func runStress(ops []stressOp, sets int, cfg Config) ([][]int, Stats) {
	rt := New(cfg)
	logs := make([][]int, sets)
	var pool atomic.Int64
	rt.BeginIsolation()
	for i, op := range ops {
		switch op.kind {
		case 0:
			i, log, work := i, &logs[op.set], op.work
			rt.Delegate(op.set, func(int) {
				switch work {
				case 1:
					for spin := 0; spin < 2000; spin++ {
						_ = spin
					}
				case 2:
					time.Sleep(20 * time.Microsecond)
				}
				*log = append(*log, i)
			})
		case 1:
			rt.EndIsolation()
			rt.BeginIsolation()
		case 2:
			rt.SyncSet(op.set)
		case 3:
			rt.EndIsolation()
			tasks := make([]func(int), 6)
			for j := range tasks {
				tasks[j] = func(int) { pool.Add(1) }
			}
			rt.RunParallel(tasks)
			rt.BeginIsolation()
		}
	}
	rt.Terminate()
	return logs, rt.Stats()
}

// TestShedStress is the standing stress: seeded random programs — sets ×
// chain lengths × operation durations including zero, with epoch breaks,
// reclaims and pool tasks in between — give per-set logs identical to
// Sequential on every configuration that may help.
func TestShedStress(t *testing.T) {
	cfgs := map[string]Config{
		"static-1":     {Delegates: 1},
		"static-2":     {Delegates: 2},
		"static-4":     {Delegates: 4},
		"tiny-ring":    {Delegates: 2, QueueCapacity: 4}, // a barrier finds a few operations, mostly of one chain
		"least-loaded": stealCfg(3, neverStealThreshold),
		"stealing":     stealCfg(3, 4),
	}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	var helped uint64
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(2200 + trial)))
		sets := 1 + r.Intn(24)
		ops := genStress(r, sets, 1200, 1)
		want, _ := runStress(ops, sets, Config{Sequential: true})
		for name, cfg := range cfgs {
			got, st := runStress(ops, sets, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: per-set logs differ from Sequential", trial, name)
			}
			helped += st.HelpedOps
		}
	}
	if helped == 0 {
		t.Errorf("the program context never executed an operation in %d programs", trials*len(cfgs))
	}
}

func ExampleRuntime_DumpSchedState() {
	rt := New(Config{Delegates: 1})
	rt.BeginIsolation()
	rt.Delegate(1, func(int) {})
	rt.EndIsolation()
	fmt.Print(rt.DumpSchedState())
	rt.Terminate()
	// Output:
	// engine: 1 delegates, sent=2 executed=2
	//   program context: helped=0 inbox=0 waiting=nothing
	//   delegate 1: pending=0000000000000000 shedreq=0 lanes[p:sent/exec]: 0:2/2
}
