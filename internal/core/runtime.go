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
// There is one engine. This file holds the runtime object, the epoch
// protocol and live reconfiguration; delegate.go the delegation path, the
// drain loop and the barrier; owners.go placement, the owner table and the
// whole-set rebalancer. Config.Recursive is a permission, not a mode: it
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
	// cfg is the effective configuration. All fields are immutable after
	// New EXCEPT Delegates, which the program context rewrites at the
	// epoch boundary that applies a Resize (applyResize). Plain
	// reads of cfg.Delegates are sound only on the program context or
	// inside delegated operations (the lane push-pop atomics carry the
	// happens-before edge from the post-barrier write to any op delegated
	// after it); any other reader — a metrics scrape — must use the atomic
	// active counter instead.
	cfg Config

	// delegates holds the FULL pre-allocated pool: MaxDelegates structs
	// with their lanes built at New, goroutines spawned only for the active
	// prefix [0, cfg.Delegates). The slice itself is never reallocated or
	// resliced, which is what lets any goroutine range a prefix of it.
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

	// active mirrors cfg.Delegates behind an atomic, for readers with no
	// happens-before edge to the program context's epoch-boundary write
	// (QueueDepths on metrics scrapes, placement scans on delegate
	// producers). 0 in Sequential mode.
	active atomic.Int32

	// pendingSize is the pool size a Resize asked for (0: none): stored from
	// any goroutine, swapped out and applied by the program context at the
	// next BeginIsolation.
	pendingSize atomic.Int32

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
		synced: make([]uint64, cfg.MaxDelegates),
		clock:  newPhaseClock(),
	}
	if cfg.Trace {
		rt.traceSt = newTraceState(cfg.MaxDelegates + 1)
	}
	if cfg.Sequential {
		return rt // no delegate goroutines at all in debug mode
	}
	rt.active.Store(int32(cfg.Delegates))
	// Build the FULL pool up front — structs, lanes and ledgers for
	// MaxDelegates — but spawn drain goroutines only for the initial active
	// prefix. A later Resize activates pre-built delegates (or parks active
	// ones) without reallocating any structure a running drain loop or
	// producer indexes into, so NumContexts and every per-context array
	// sized from it stay valid for the runtime's whole life. With Recursive
	// every context is a producer and the lanes form a
	// MaxDelegates x (MaxDelegates+1) matrix (documented on MaxDelegates).
	producers := 1
	if cfg.Recursive {
		producers = cfg.MaxDelegates + 1
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
	for i := 0; i < cfg.MaxDelegates; i++ {
		rt.delegates = append(rt.delegates, newDelegate(i+1, producers, progCap, cfg.QueueCapacity, pool))
	}
	rt.prog = newDelegate(ProgramContext, cfg.MaxDelegates+1, cfg.QueueCapacity, inboxCap, pool)
	rt.progBuf = make([]Invocation, drainBatchSize)
	rt.marks = make([]atomic.Uint64, cfg.MaxDelegates)
	rt.timer = time.NewTimer(helpAfter)
	rt.timer.Stop()
	for _, d := range rt.delegates[:cfg.Delegates] {
		rt.wg.Add(1)
		go rt.delegateLoop(d)
	}
	return rt
}

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// NumContexts returns the number of execution contexts (program + delegate
// CAPACITY); context ids are in [0, NumContexts). It reports MaxDelegates+1
// — the pre-allocated pool ceiling, not the live size — and is immutable
// for the runtime's whole life, so per-context arrays sized from it at
// construction (reducible views, Ctx tables) stay valid across every
// Resize. Use ActiveDelegates for the live pool size.
func (rt *Runtime) NumContexts() int { return rt.cfg.MaxDelegates + 1 }

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

// ActiveDelegates returns the number of currently-active delegate contexts
// (0 in Sequential mode). Safe from any goroutine.
func (rt *Runtime) ActiveDelegates() int { return int(rt.active.Load()) }

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
	rt.applyResize()
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

// Resize requests the delegate pool be resized to n active delegates. The
// request is validated immediately and recorded; the PROGRAM CONTEXT
// applies it at the next BeginIsolation — the engine's quiescent point,
// where the epoch barrier has proven no operation in flight and the owner
// table is about to rebuild, so first touch places sets across whatever
// pool opens the epoch. Safe from any goroutine; concurrent requests
// follow last-store-wins.
//
// A target outside what the pre-allocated pool can honor comes back as a
// descriptive error, never a deferred panic: the resize surface is driven
// by operators (admin endpoints, autoscalers), so a bad target must fail at
// the call site, not deep in placement at the next epoch. Only fields that
// stay immutable after New are read, so any goroutine may call it.
func (rt *Runtime) Resize(n int) error {
	c := &rt.cfg
	switch {
	case c.Sequential:
		return fmt.Errorf("prometheus: Resize: Sequential mode has no delegate pool to resize")
	case n < 1:
		return fmt.Errorf("prometheus: Resize: %d delegates is not a valid pool size", n)
	case n > c.MaxDelegates:
		return fmt.Errorf(
			"prometheus: Resize: %d delegates exceeds the pool capacity MaxDelegates=%d (pool structures are pre-allocated at New; raise WithMaxDelegates)",
			n, c.MaxDelegates)
	}
	rt.pendingSize.Store(int32(n))
	return nil
}

// applyResize applies a pending Resize at the epoch boundary: barrier,
// count evacuees, park or spawn, republish. Called by BeginIsolation on the
// program context, before the owner table rebuilds (so placement state is
// constructed for the NEW pool, never patched afterwards).
//
// Scale-up activates pre-built delegates: spawn their drain goroutines and
// let this epoch's placement — the modulus, or first touch — spread sets
// across the larger pool. Scale-down is the stealer's argument in pool
// form: the barrier below proves every set quiescent on every
// delegate — the same whole-set handoff boundary the stealer uses, applied
// to all sets at once — so the retiring delegates' sets are re-placed by
// the new modulus or the owner-table rebuild this epoch performs anyway,
// and the retirees park permanently with provably balanced lane ledgers.
func (rt *Runtime) applyResize() {
	n, old := int(rt.pendingSize.Swap(0)), rt.cfg.Delegates
	if n == 0 || n == old {
		return
	}
	// Prove the OLD pool quiescent first. BeginIsolation does not imply a
	// barrier on its own (aggregation-epoch delegations may still be in
	// flight); the resize point must be one.
	rt.barrier()
	// Count the owner-table entries a scale-down evacuates off retiring
	// delegates (StaticMod keeps none: its sets follow the new modulus).
	// The barrier proved them quiescent everywhere, so "evacuation" is
	// exact re-placement by the epoch's table rebuild — nothing is copied
	// or drained here; the count is the observability record of how much
	// placement state the shrink displaced.
	evacuated := 0
	if n < old {
		if tbl := rt.owners.Load(); tbl != nil {
			tbl.forEach(func(_ uint64, e *setEntry) {
				if int(e.owner.Load()) > n {
					evacuated++
				}
			})
		}
		rt.parkDelegates(n, old)
	}
	// The modulus and first-touch placement both derive from
	// cfg.Delegates: rewrite it and publish the atomic mirror before either
	// runs for this epoch.
	rt.cfg.Delegates = n
	rt.active.Store(int32(n))
	for i := old; i < n; i++ {
		rt.wg.Add(1)
		go rt.delegateLoop(rt.delegates[i])
	}
	rt.stats.Resizes++
	rt.stats.ResizeEvacuatedSets += uint64(evacuated)
	if ts := rt.traceSt; ts != nil {
		ts.instant(ProgramContext, TraceResize, uint64(n), rt.epoch)
	}
}

// parkDelegates retires delegates n..old-1: each is sent a termination
// object and its goroutine exits once served. Lanes and ledgers are NOT
// torn down — a later scale-up respawns the loop over the same structures,
// resuming the published counters where they stopped. The caller has
// proven the pool quiescent; Checked mode re-asserts it per retiree — no
// lane traffic survives a retired delegate.
func (rt *Runtime) parkDelegates(n, old int) {
	for i := n; i < old; i++ {
		rt.synced[i] = rt.mark(i, kindTerminate)
	}
	rt.wait(nil, false)
	if !rt.cfg.Checked {
		return
	}
	for _, d := range rt.delegates[n:old] {
		for p := range d.exec {
			if sent, exec := d.sent[p].n.Load(), d.exec[p].Load(); sent != exec {
				panic(fmt.Sprintf(
					"prometheus: retiring delegate %d parked with lane %d unbalanced (sent=%d exec=%d) — traffic survived a retired delegate",
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
		rt.parkDelegates(0, rt.cfg.Delegates)
		rt.wg.Wait()
	}
	rt.clock.switchTo(PhaseAggregation, &rt.stats)
}
