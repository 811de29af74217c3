package prometheus

import (
	"bytes"
	"testing"
	"time"
)

// A trace describes the program the ledger measures: WithTrace records every
// executed operation where it runs (internal/core's execSpan) and changes
// nothing about how it got there. These tests pin what a trace must show —
// pool tasks, operations the program context took over, Sequential's inline
// operations — and that a traced run allocates and orders like an untraced
// one.

// execEvents counts a finished run's TraceExec events by set and by context.
func execEvents(rt *Runtime) (perSet map[uint64]int, byCtx map[int]int) {
	perSet, byCtx = map[uint64]int{}, map[int]int{}
	for _, ev := range rt.TraceEvents() {
		if ev.Kind == TraceExec {
			perSet[ev.Set]++
			byCtx[ev.Ctx]++
		}
	}
	return perSet, byCtx
}

// TestTraceShowsReductionTasks: a reduction's combine steps run as pool
// tasks through RunParallel and appear as exec events of no set.
func TestTraceShowsReductionTasks(t *testing.T) {
	rt := newRT(t, WithDelegates(3), WithTrace())
	sum := NewReducible(rt, func() int { return 0 }, func(dst, src *int) { *dst += *src })
	ws := make([]*Writable[int], 8)
	for i := range ws {
		ws[i] = NewWritable(rt, i)
	}
	rt.BeginIsolation()
	DoAll(ws, func(c *Ctx, v *int) { *sum.View(c) += *v })
	rt.EndIsolation()
	if got, want := *sum.Result(), 8*7/2; got != want {
		t.Fatalf("reduced sum = %d, want %d", got, want)
	}
	perSet, _ := execEvents(rt)
	// A pairwise tree over one view per context combines NumContexts-1 pairs.
	if got, want := perSet[NoSet], rt.NumContexts()-1; got != want {
		t.Errorf("trace shows %d pool tasks, want the reduction's %d combines", got, want)
	}
	if got := len(perSet) - 1; got != len(ws) {
		t.Errorf("trace shows %d serialization sets, want %d", got, len(ws))
	}
}

// TestTraceShowsHelpedOps: operations the program context executes while it
// waits in a barrier are context-0 events, one per helped operation.
func TestTraceShowsHelpedOps(t *testing.T) {
	rt := newRT(t, WithDelegates(1), WithTrace())
	ws := make([]*Writable[int], 40)
	for i := range ws {
		ws[i] = NewWritable(rt, i)
	}
	rt.BeginIsolation()
	DoAll(ws, func(c *Ctx, v *int) {
		if *v == 0 {
			holdUntilAsked(rt, c) // the first operation: everything after it is split
		}
		time.Sleep(20 * time.Microsecond)
	})
	rt.EndIsolation()
	st := rt.Stats()
	_, byCtx := execEvents(rt)
	if st.HelpedOps == 0 || uint64(byCtx[0]) != st.HelpedOps {
		t.Errorf("trace shows %d operations on context 0, Stats.HelpedOps = %d", byCtx[0], st.HelpedOps)
	}
	if got := byCtx[0] + byCtx[1]; got != len(ws) {
		t.Errorf("trace shows %d operations, want %d", got, len(ws))
	}
}

// TestTraceSequentialInline: debug mode executes inline on context 0 and
// still yields one exec event per delegation.
func TestTraceSequentialInline(t *testing.T) {
	rt := newRT(t, Sequential(), WithTrace())
	ws := make([]*Writable[int], 5)
	for i := range ws {
		ws[i] = NewWritable(rt, 0)
	}
	rt.BeginIsolation()
	for round := 0; round < 3; round++ {
		DoAll(ws, func(_ *Ctx, v *int) { *v++ })
	}
	rt.EndIsolation()
	perSet, byCtx := execEvents(rt)
	if byCtx[0] != 15 || len(byCtx) != 1 || len(perSet) != len(ws) {
		t.Errorf("exec events by context %v over %d sets, want 15 on context 0 over %d sets", byCtx, len(perSet), len(ws))
	}
}

// TestTracedDelegateBuildsNoClosure: tracing observes the trampoline path
// instead of wrapping each operation in closures (two objects an operation
// when it did); what a traced delegation still allocates is the amortized
// growth of the event buffer.
func TestTracedDelegateBuildsNoClosure(t *testing.T) {
	rt := newRT(t, WithDelegates(2), WithTrace())
	w := NewWritable(rt, 0)
	bump := func(_ *Ctx, v *int) { *v++ }
	const n = 10000
	perEpoch := testing.AllocsPerRun(1, func() {
		rt.BeginIsolation()
		for i := 0; i < n; i++ {
			w.Delegate(bump)
		}
		rt.EndIsolation()
	})
	if perOp := perEpoch / n; perOp >= 1 {
		t.Errorf("traced Writable.Delegate allocates %.2f objects per operation, want < 1", perOp)
	}
	if got := Call(w, func(v *int) int { return *v }); got != 2*n { // AllocsPerRun adds a warm-up run
		t.Errorf("counter = %d, want %d", got, 2*n)
	}
}

// TestTracedRunsByteIdentical: the bank and reverse-index programs produce
// the same per-set logs traced as untraced, on the one-lane and the
// lane-matrix engine, under stealing.
func TestTracedRunsByteIdentical(t *testing.T) {
	programs := map[string]func(...Option) ([]byte, Stats){
		"bank": runBankWorkload, "reverse_index": runReverseIndexWorkload,
	}
	for name, run := range programs {
		want, _ := run(Sequential())
		for _, w := range laneWidths {
			untraced, _ := run(stealStressOpts(w.opts...)...)
			traced, _ := run(stealStressOpts(append([]Option{WithTrace()}, w.opts...)...)...)
			if !bytes.Equal(untraced, want) || !bytes.Equal(traced, want) {
				t.Errorf("%s/%s: per-set logs diverged (untraced equal to sequential: %v, traced: %v)",
					name, w.name, bytes.Equal(untraced, want), bytes.Equal(traced, want))
			}
		}
	}
}
