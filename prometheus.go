package prometheus

import (
	"errors"
	"sort"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
)

// Stats re-exports the runtime counters and the per-phase time breakdown
// (used to regenerate the paper's Figure 5a).
type Stats = core.Stats

// Phase identifies an epoch type in Stats.
type Phase = core.Phase

// Phases, re-exported from the engine.
const (
	PhaseAggregation = core.PhaseAggregation
	PhaseIsolation   = core.PhaseIsolation
	PhaseReduction   = core.PhaseReduction
)

// Ctx identifies the execution context running a delegated operation. The
// program context has ID 0; delegate contexts are numbered from 1. Reducible
// views are addressed by Ctx. A Ctx must not be retained beyond the
// delegated call it was passed to.
type Ctx struct {
	rt *Runtime
	id int
}

// ID returns the context number in [0, Runtime.NumContexts()).
func (c *Ctx) ID() int { return c.id }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// ctxTramp is the Ctx.Delegate trampoline: one static function shared by
// every recursive delegation, so issuing one builds no per-call closure.
// p1 is the Runtime, p2 the user callback's funcval pointer.
func ctxTramp(ctx int, p1, p2 unsafe.Pointer) {
	rt := (*Runtime)(p1)
	fn := ptrFunc[func(*Ctx)](p2)
	fn(&rt.ctxs[ctx])
}

// Delegate assigns fn to the given serialization set from inside a
// delegated operation (recursive delegation; requires the Recursive
// option). Per-set ordering follows the delegating context's program
// order; a set must not receive delegations from two different contexts in
// one isolation epoch. Steady state this is the same zero-allocation
// trampoline fast path the root wrappers use: the invocation record is
// written by value into the producer's ring lane on the set's owner.
func (c *Ctx) Delegate(set uint64, fn func(c *Ctx)) {
	rt := c.rt
	rt.core.DelegateFromCall(c.id, set, ctxTramp, unsafe.Pointer(rt), funcPtr(fn))
}

// Option configures Init.
type Option func(*core.Config)

// WithDelegates sets the number of delegate contexts (paper: delegate
// threads; default GOMAXPROCS-1).
func WithDelegates(n int) Option { return func(c *core.Config) { c.Delegates = n } }

// WithStealing replaces the paper's placement (set s on delegate s mod D +
// 1) with dynamic placement: each epoch places a set at its first delegation
// on the least-occupied delegate, and an occupancy-aware rebalancer moves
// it. When a set's owner has at least four outstanding operations and every
// operation previously delegated to that set has finished executing (the
// set is quiescent — a safe handoff boundary), the next delegation hands the
// whole set to the delegate with the smallest occupancy, provided it is idle
// or at most a quarter as loaded as the victim. Sets — never individual
// invocations — are the steal unit, so operations within a set still
// execute in program order and the model's determinism guarantee is
// unchanged; only placement responds to load.
//
// With Recursive only leaf sets move: a set one of whose operations has
// delegated a nested operation this epoch stays on its owner for the rest
// of the epoch, so every set keeps one producer context per epoch (see
// doc.go).
func WithStealing() Option { return func(c *core.Config) { c.Stealing = true } }

// Sequential builds the runtime in the paper's debug mode (§3.3): all
// delegations execute inline, in program order, with checks still active.
func Sequential() Option { return func(c *core.Config) { c.Sequential = true } }

// Checked enables dynamic error detection (§3.3). The paper disables these
// checks for performance measurements; so do the benchmarks here. Under
// Recursive it panics with a serializer violation when a set receives
// delegations from a second context in one isolation epoch, under either
// placement and however quiescent the set.
func Checked() Option { return func(c *core.Config) { c.Checked = true } }

// WithTrace enables execution tracing; retrieve events with
// Runtime.TraceEvents and analyze them with the trace package.
func WithTrace() Option { return func(c *core.Config) { c.Trace = true } }

// Recursive enables recursive delegation, the extension the paper names as
// future work (§4): delegated operations may delegate further operations
// via Ctx.Delegate. A serialization set must receive delegations from only
// one context per isolation epoch for the execution to stay deterministic
// (the engine never changes it: stealing moves only sets whose operations
// delegate nothing). It composes with either placement: the paper's by
// default, WithStealing's on request. Reclaiming a Writable during an
// isolation epoch waits for the whole runtime to quiesce, because the
// reclaim must also cover nested work.
func Recursive() Option { return func(c *core.Config) { c.Recursive = true } }

// Runtime is the serialization-sets runtime. Create one with Init. Methods
// not marked safe from any goroutine are for the holder of the
// program-context role: the creating goroutine, or one handed the role
// across a happens-before edge (the serving tier passes it under a mutex).
// Delegated closures receive a *Ctx instead.
type Runtime struct {
	core     *core.Runtime
	ctxs     []Ctx // one per context id; handed to delegated closures
	instance atomic.Uint64
	checked  bool
}

// Init starts a runtime (paper: initialize()).
func Init(opts ...Option) *Runtime {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	rt := &Runtime{checked: cfg.Checked}
	rt.core = core.New(cfg)
	rt.ctxs = make([]Ctx, rt.core.NumContexts())
	for i := range rt.ctxs {
		rt.ctxs[i] = Ctx{rt: rt, id: i}
	}
	return rt
}

// Terminate shuts down the runtime (paper: terminate()), draining
// outstanding delegated work first.
func (rt *Runtime) Terminate() { rt.core.Terminate() }

// Sleep quiesces delegate contexts during a long aggregation epoch
// (paper: sleep()).
func (rt *Runtime) Sleep() { rt.core.Sleep() }

// BeginIsolation opens an isolation epoch (paper: begin_isolation()).
func (rt *Runtime) BeginIsolation() { rt.core.BeginIsolation() }

// EndIsolation closes the isolation epoch, synchronizing with all delegate
// contexts (paper: end_isolation()).
func (rt *Runtime) EndIsolation() { rt.core.EndIsolation() }

// InIsolation reports whether an isolation epoch is open.
func (rt *Runtime) InIsolation() bool { return rt.core.InIsolation() }

// NumContexts returns the number of execution contexts: the program
// context plus the delegate pool, which is fixed for the runtime's life.
// Safe from any goroutine.
func (rt *Runtime) NumContexts() int { return rt.core.NumContexts() }

// NumDelegates returns the size of the delegate pool, fixed at Init.
// Safe from any goroutine.
func (rt *Runtime) NumDelegates() int { return rt.core.NumContexts() - 1 }

// ProgramCtx returns the program context handle, for use with reducibles
// from the program context.
func (rt *Runtime) ProgramCtx() *Ctx { return &rt.ctxs[core.ProgramContext] }

// Stats returns a snapshot of runtime counters and phase times.
func (rt *Runtime) Stats() Stats { return rt.core.Stats() }

// TraceEvent re-exports the trace record type.
type TraceEvent = core.TraceEvent

// Trace-event kinds, re-exported.
const (
	TraceExec  = core.TraceExec
	TraceEpoch = core.TraceEpoch
	TraceSteal = core.TraceSteal
	TracePanic = core.TracePanic
)

// TraceEvents returns the merged trace (nil unless WithTrace was given).
// Program context, aggregation epoch only.
func (rt *Runtime) TraceEvents() []TraceEvent { return rt.core.TraceEvents() }

// Checked reports whether dynamic error detection is enabled.
func (rt *Runtime) Checked() bool { return rt.checked }

// NoSet is the serialization-set id reported in a PanicError when the
// faulted operation belonged to no set (a RunParallel pool task). It is
// reserved: user delegations may not use it.
const NoSet = core.NoSet

// Err reports every panic the runtime has contained so far: errors.Join of
// one *PanicError per retained fault, each carrying the recovered value and
// original stack, in (epoch, set) order. Nil when no delegated operation
// has faulted. A contained panic poisons the faulting operation's
// serialization set for the rest of its isolation epoch — the set executed
// exactly its prefix up to the fault, everything after was
// deterministically dropped — so Err is how a program that survived an
// epoch finds out it did not finish it. errors.Is and errors.As reach
// through each record to a panic value that was itself an error, such as
// an *Error raised inside an operation. Only the most recent
// core.DefaultFaultRecordBound faults are retained; Stats.DroppedFaults
// counts evictions. Safe from any goroutine.
func (rt *Runtime) Err() error {
	// The records arrive in containment order, which concurrent faults on
	// different delegates make nondeterministic; sorting by (epoch, set)
	// gives the report a stable shape.
	faults := rt.core.Faults()
	sort.Slice(faults, func(i, j int) bool {
		if faults[i].Epoch != faults[j].Epoch {
			return faults[i].Epoch < faults[j].Epoch
		}
		return faults[i].Set < faults[j].Set
	})
	errs := make([]error, len(faults))
	for i := range faults {
		errs[i] = &faults[i]
	}
	return errors.Join(errs...)
}

// QueueDepths appends each delegate context's current backlog (operations
// routed to it that have not finished executing) to dst and returns the
// extended slice, one entry per delegate. Safe from any goroutine and
// allocation-free when dst has capacity — the serving tier samples it on
// every metrics scrape.
func (rt *Runtime) QueueDepths(dst []uint64) []uint64 { return rt.core.QueueDepths(dst) }

// SchedDump renders the engine's scheduler ledgers — per delegate, its
// pending lanes and each lane's sent/executed position — as a
// human-readable report, the same dump the barrier watchdog attaches to a
// wedge panic. A draining server logs it when its drain deadline expires to
// identify stragglers. Safe from any goroutine.
func (rt *Runtime) SchedDump() string { return rt.core.DumpSchedState() }

// nextInstance issues wrapper instance numbers (the sequence serializer's
// identity source).
func (rt *Runtime) nextInstance() uint64 { return rt.instance.Add(1) - 1 }
