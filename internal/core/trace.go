package core

import "time"

// Execution tracing. With Config.Trace enabled, the runtime records one
// event per executed operation — on delegates and on the program context in
// a barrier (execSpan), or inline in Sequential mode, pool tasks included
// (Set == NoSet) — and one per epoch, steal and contained
// panic, into per-context buffers (single writer each, so the
// hot path takes no locks). A traced run delegates exactly as an untraced
// one does. The trace package turns the merged event list into utilization
// reports and timelines; it is the profiling story behind the paper's §5
// overhead discussion.

// TraceKind classifies trace events.
type TraceKind uint8

const (
	TraceExec  TraceKind = iota // a delegated operation ran on Ctx
	TraceEpoch                  // isolation epoch [Start, End) on the program context
	TraceSteal                  // Set was handed off by the rebalancer; Ctx is the producer that migrated it
	TracePanic                  // a delegated operation of Set panicked on Ctx and was contained (Epoch carries the isolation epoch)
)

func (k TraceKind) String() string {
	switch k {
	case TraceExec:
		return "exec"
	case TraceEpoch:
		return "epoch"
	case TraceSteal:
		return "steal"
	case TracePanic:
		return "panic"
	default:
		return "?"
	}
}

// TraceEvent is one recorded event. Times are offsets from the runtime's
// start, so events from different contexts share a clock. Epoch is set only
// on TracePanic events (the isolation epoch the faulting operation ran in).
type TraceEvent struct {
	Ctx        int
	Kind       TraceKind
	Set        uint64
	Epoch      uint64
	Start, End time.Duration
}

// traceState holds the per-context buffers.
type traceState struct {
	origin time.Time
	bufs   [][]TraceEvent // indexed by context id; single writer each
}

func newTraceState(contexts int) *traceState {
	return &traceState{origin: time.Now(), bufs: make([][]TraceEvent, contexts)}
}

// record appends an event to ctx's buffer. Only the goroutine running ctx
// may call it.
func (ts *traceState) record(ctx int, kind TraceKind, set uint64, start, end time.Time) {
	ts.bufs[ctx] = append(ts.bufs[ctx], TraceEvent{
		Ctx:   ctx,
		Kind:  kind,
		Set:   set,
		Start: start.Sub(ts.origin),
		End:   end.Sub(ts.origin),
	})
}

// invoke runs inv on ctx and records the execution as a TraceExec span; an
// operation that panics leaves a TracePanic instead (recordPanic). Only the
// goroutine running ctx may call it.
func (ts *traceState) invoke(inv *Invocation, ctx int) {
	start := time.Now()
	inv.invoke(ctx)
	ts.record(ctx, TraceExec, inv.set, start, time.Now())
}

// instant appends a zero-length event — a steal or a contained panic:
// decisions, not spans — to ctx's buffer, stamped now. Only the
// goroutine running ctx may call it.
func (ts *traceState) instant(ctx int, kind TraceKind, set, epoch uint64) {
	off := time.Since(ts.origin)
	ts.bufs[ctx] = append(ts.bufs[ctx], TraceEvent{Ctx: ctx, Kind: kind, Set: set, Epoch: epoch, Start: off, End: off})
}

// TraceEvents returns the merged event list. Must be called from the
// program context with no isolation epoch open (the EndIsolation barrier
// orders delegate buffer writes before this read). Returns nil when
// tracing is disabled.
func (rt *Runtime) TraceEvents() []TraceEvent {
	if rt.traceSt == nil {
		return nil
	}
	if rt.inIsolation {
		panic("prometheus: TraceEvents during an isolation epoch")
	}
	rt.barrier()
	var all []TraceEvent
	for _, buf := range rt.traceSt.bufs {
		all = append(all, buf...)
	}
	return all
}
