// Package core implements the Prometheus runtime for the serialization-sets
// execution model (Allen, Sridharan & Sohi, PPoPP 2009): a program context
// that delegates operations, a pool of delegate contexts each fed by
// private FastForward-style SPSC lanes, set placement, epoch management,
// ownership synchronization, and per-phase instrumentation.
//
// The delegation hot path is built to cost zero heap allocations and O(1)
// work in steady state: invocation records travel by value through
// sequence-stamped rings (no per-operation allocation), wrapper layers
// delegate through static trampolines (no per-call closure), and scheduling
// queries read single-writer ledger counters.
//
// There is one engine. This file holds the runtime object and the epoch
// protocol; delegate.go the delegation path, the drain loop and the
// barrier; owners.go placement, the owner table and the whole-set
// rebalancer. Config.Recursive is a permission, not a mode: it
// widens each delegate's lane set from one (the program context's) to one
// per context, and strengthens a reclaim from a single-lane sync to the
// quiescence barrier.
//
// This package is the engine; the exported user-facing API (wrappers,
// serializers, reducibles) lives in the repository root package prometheus.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spsc"
)

// ProgramContext is the context id of the program thread. Delegate contexts
// are numbered 1..Delegates.
const ProgramContext = 0

// Runtime orchestrates parallel execution of delegated operations. Unless
// documented otherwise its methods are for the holder of the program-context
// role — the goroutine that called New, or one it was passed to across a
// happens-before edge: the program lane needs one producer at a time, not one
// goroutine. Delegated closures see only the context id they are handed.
type Runtime struct {
	// cfg is the effective configuration, immutable after New, so Config
	// and every read of it are safe from any goroutine.
	cfg Config

	// delegates is the pool (paper §4): cfg.Delegates delegates with their
	// lanes, built at New and never changed until Terminate parks them all.
	delegates []*delegate
	wg        sync.WaitGroup

	// prog is the program context as an executing context: context 0 built
	// like a delegate, its lanes (indexed by producer context id) the inbox
	// the delegates shed into (delegate.go); nil in Sequential mode. progBuf
	// is its drain buffer.
	prog    *delegate
	progBuf []Invocation

	// What the program context's one wait (watchdog.go) waits for, published
	// for DumpSchedState: marks[i] is the program-lane position of a marker
	// outstanding on delegate i+1 (0: none), roomOn the delegate whose full
	// program lane it waits on (0: none), which drainLane also reads to
	// wake it. timer is the wait's one reusable deadline.
	marks  []atomic.Uint64
	roomOn atomic.Int32
	timer  *time.Timer

	epoch       uint64 // isolation epochs begun; wrappers version state on it
	inIsolation bool
	terminated  bool

	// synced[d] is delegate d+1's program-lane position as of the program
	// context's last completed synchronization with it; the delegate is
	// clean — skipped by syncs and non-recursive barriers — while its sent
	// counter still equals it. Program-context private.
	synced []uint64

	// owners is the dynamic set->entry table of the current epoch (nil
	// under StaticMod). An atomic pointer so BeginIsolation can swap in a
	// fresh table without racing late snapshot readers.
	owners atomic.Pointer[ownerTable]
	// producers is the Checked-mode registry of one producer context per set
	// under Recursive with static placement: an owner table whose entries are
	// used for their producer field alone (nil otherwise).
	producers atomic.Pointer[ownerTable]
	// prod[p] holds producer context p's rebalancer counters.
	prod []producerStats

	// faults is the fault-containment record (fault.go): nil until the
	// first contained panic, so the fault-free hot path pays one atomic
	// load and no allocation.
	faults atomic.Pointer[faultState]

	// traceSt holds trace buffers (nil unless Config.Trace).
	traceSt    *traceState
	epochStart time.Time

	stats Stats
	clock phaseClock
}

// New creates and starts a runtime (paper: initialize()). The calling
// goroutine holds the program-context role first.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:    cfg,
		synced: make([]uint64, cfg.Delegates),
		clock:  newPhaseClock(),
	}
	if cfg.Trace {
		rt.traceSt = newTraceState(cfg.Delegates + 1)
	}
	if cfg.Sequential {
		return rt // no delegate goroutines at all in debug mode
	}
	// With Recursive every context is a producer and the lanes form a
	// Delegates x (Delegates+1) matrix.
	producers := 1
	if cfg.Recursive {
		producers = cfg.Delegates + 1
	}
	rt.prod = make([]producerStats, producers)
	if cfg.Policy == LeastLoaded {
		rt.owners.Store(newOwnerTable(0))
	} else if cfg.Checked && cfg.Recursive {
		rt.producers.Store(newOwnerTable(0))
	}
	// One spill-node pool shared by every lane of this runtime, so spill
	// pressure that moves between lanes keeps recycling nodes.
	pool := spsc.NewNodePool[Invocation]()
	// Without Stealing the program context's lanes are progLaneRings rings:
	// its program lane on each delegate, and — where barriers shed, not
	// under Recursive — each inbox lane, which a shed fills with up to half
	// a program lane. The inbox's own lane 0 is never pushed into.
	progCap, inboxCap := cfg.QueueCapacity, cfg.QueueCapacity
	if !cfg.Stealing {
		progCap = progLaneRings * cfg.QueueCapacity
		if !cfg.Recursive {
			inboxCap = progCap
		}
	}
	for i := 0; i < cfg.Delegates; i++ {
		rt.delegates = append(rt.delegates, newDelegate(i+1, producers, progCap, cfg.QueueCapacity, pool))
	}
	rt.prog = newDelegate(ProgramContext, cfg.Delegates+1, cfg.QueueCapacity, inboxCap, pool)
	rt.progBuf = make([]Invocation, drainBatchSize)
	rt.marks = make([]atomic.Uint64, cfg.Delegates)
	rt.timer = time.NewTimer(helpAfter)
	rt.timer.Stop()
	for _, d := range rt.delegates {
		rt.wg.Add(1)
		go rt.delegateLoop(d)
	}
	return rt
}

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// NumContexts returns the number of execution contexts, the program
// context and Delegates delegates; context ids are in [0, NumContexts). The
// pool is fixed, so per-context arrays sized from it at construction
// (reducible views, Ctx tables) stay valid for the runtime's whole life.
func (rt *Runtime) NumContexts() int { return rt.cfg.Delegates + 1 }

// ExecutingSet returns the serialization set of the operation context ctx
// is executing (the drain loop's stamp), or NoSet for a pool task or nothing
// delegated. The stamp is a plain field: only ctx's own goroutine may ask.
func (rt *Runtime) ExecutingSet(ctx int) uint64 {
	switch {
	case rt.cfg.Sequential:
		return noSetID // everything runs on context 0: the context alone decides
	case ctx == ProgramContext:
		return rt.prog.prodSet
	}
	return rt.delegates[ctx-1].prodSet
}

// Epoch returns the current isolation-epoch number. It is 0 before the first
// BeginIsolation; wrappers use it to lazily version their state machines.
func (rt *Runtime) Epoch() uint64 { return rt.epoch }

// InIsolation reports whether an isolation epoch is open.
func (rt *Runtime) InIsolation() bool { return rt.inIsolation }

// BeginIsolation opens an isolation epoch (paper: begin_isolation()).
func (rt *Runtime) BeginIsolation() {
	if rt.terminated {
		panic("prometheus: BeginIsolation after Terminate")
	}
	if rt.inIsolation {
		panic("prometheus: nested BeginIsolation")
	}
	rt.epoch++
	rt.inIsolation = true
	rt.stats.Epochs++
	if rt.traceSt != nil {
		rt.epochStart = time.Now()
	}
	if reg := rt.producers.Load(); reg != nil {
		rt.producers.Store(newOwnerTable(reg.len())) // one producer per set per epoch
	}
	if tbl := rt.owners.Load(); tbl != nil {
		rt.owners.Store(newOwnerTable(tbl.len())) // new epoch, new partition: first touch re-places
	}
	if fs := rt.faults.Load(); fs != nil {
		// Poisoning is epoch-scoped: the new epoch starts with a clean
		// slate (fault records persist).
		fs.resetPoison()
	}
	rt.clock.switchTo(PhaseIsolation, &rt.stats)
}

// EndIsolation synchronizes the program context with all delegate contexts
// and reverts to an aggregation epoch (paper: end_isolation()).
func (rt *Runtime) EndIsolation() {
	if !rt.inIsolation {
		panic("prometheus: EndIsolation without BeginIsolation")
	}
	rt.barrier()
	rt.inIsolation = false
	if rt.traceSt != nil {
		rt.traceSt.record(ProgramContext, TraceEpoch, uint64(rt.epoch), rt.epochStart, time.Now())
	}
	rt.clock.switchTo(PhaseAggregation, &rt.stats)
}

// parkDelegates sends every delegate a termination object and waits until
// each has served it; its goroutine then exits. The caller has proven the
// pool quiescent; Checked mode re-asserts it per delegate — no lane traffic
// survives a parked delegate.
func (rt *Runtime) parkDelegates() {
	for i := range rt.delegates {
		rt.synced[i] = rt.mark(i, kindTerminate)
	}
	rt.wait(nil, false)
	if !rt.cfg.Checked {
		return
	}
	for _, d := range rt.delegates {
		for p := range d.exec {
			if sent, exec := d.sent[p].n.Load(), d.exec[p].Load(); sent != exec {
				panic(fmt.Sprintf(
					"prometheus: delegate %d parked with lane %d unbalanced (sent=%d exec=%d) — traffic survived a parked delegate",
					d.id, p, sent, exec))
			}
		}
	}
}

// EnterReduction switches phase accounting to reduction time; the matching
// ExitReduction returns to aggregation. Used by the reducible framework so
// Figure 5a can separate reduction cost.
func (rt *Runtime) EnterReduction() { rt.clock.switchTo(PhaseReduction, &rt.stats) }

// ExitReduction ends a reduction accounting span.
func (rt *Runtime) ExitReduction() { rt.clock.switchTo(PhaseAggregation, &rt.stats) }

// Stats returns a snapshot of the runtime counters with the current phase's
// elapsed time folded in and the delegate- and producer-side counters
// aggregated.
func (rt *Runtime) Stats() Stats {
	st := rt.stats
	for _, d := range rt.delegates {
		st.DrainBatches += d.drainBatches.Load()
		st.DrainedOps += d.drainedOps.Load()
		for _, lane := range d.lanes {
			st.Spills += lane.Spills()
		}
		st.Sheds += d.sheds.Load()
	}
	st.RecursiveOps = rt.sentSum()
	if rt.prog != nil {
		st.HelpedOps = rt.prog.drainedOps.Load() // everything it ever popped from its inbox
		for _, lane := range rt.prog.lanes {
			st.Spills += lane.Spills() // sheds that overflowed an inbox ring
		}
	}
	for i := range rt.prod {
		st.Steals += rt.prod[i].migrations.Load()
	}
	if fs := rt.faults.Load(); fs != nil {
		st.Panics = fs.panics.Load()
		st.PoisonedSets = fs.poisonedSets.Load()
		st.DroppedOps = fs.dropped.Load()
		st.DroppedFaults = fs.droppedRec.Load()
	}
	clk := rt.clock
	clk.switchTo(clk.phase, &st) // charge the open span without mutating rt
	return st
}

// Terminate shuts the runtime down (paper: terminate()). It waits for the
// delegates to finish outstanding work, sends each a termination object,
// and reclaims the goroutines. The runtime is unusable afterwards.
func (rt *Runtime) Terminate() {
	if rt.terminated {
		return
	}
	if rt.inIsolation {
		rt.EndIsolation()
	}
	rt.terminated = true
	if !rt.cfg.Sequential {
		rt.quiesce()
		rt.parkDelegates()
		rt.wg.Wait()
	}
	rt.clock.switchTo(PhaseAggregation, &rt.stats)
}
