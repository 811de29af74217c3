package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/spsc"
)

// The delegation engine: lanes, the ledger, the drain loop, the barrier, and
// the program context's inbox.
//
// Plumbing. SPSC queues admit a single producer, so each delegate owns one
// inbound lane per producer context. Without Config.Recursive the program
// context is the only producer and a delegate has exactly one lane — the
// paper's private communication queue; with it every delegate may delegate
// too and carries Delegates+1 lanes, one per context. Lanes are bounded
// lap-stamped value rings (spsc.Lane) backed by an unbounded spill
// list that engages only on overflow: a purely bounded lane would
// self-deadlock when a delegate delegates to a set it itself owns (or
// around a delegation cycle), because only blocked contexts could drain
// it. Delegate producers therefore never block — they spill — while the
// program context, which no delegate's progress can depend on, waits for
// room on a full lane (wait) and gets bounded-queue backpressure. Without
// Stealing its lane on each delegate (lane 0) is progLaneRings rings deep,
// every other lane one ring: deep enough that the program context reaches
// a barrier with a whole epoch of coarse operations queued behind it, where
// a busy delegate can shed them, instead of waiting for room. In steady
// state every delegation writes its invocation record by value into ring
// memory: no allocation, no node chasing.
//
// Consumption. Each delegate keeps a pending-lane bitmask (bit p set =
// lane p may hold work). A producer publishes work with one conditional
// atomic OR plus a load-only wake check; the delegate claims the raised
// lanes of a word with a single Swap and drains each claimed lane in runs
// of up to drainBatchSize invocations executed back to back, publishing
// its progress once per run instead of once per operation. An idle
// delegate loads O(1) words instead of polling its lanes.
//
// Ledger. Producer p counts every message it pushes into delegate d's lane
// p (d.sent[p], single writer, padded) and d publishes how many of that
// lane's messages it has finished (d.exec[p]). Lanes are FIFO, so
// exec[p] >= position proves everything at or before that position ran.
// The one ledger answers every scheduling question: occupancy (sent minus
// exec: queued plus in-flight work) for placement, stealing and QueueDepths;
// per-set quiescence for whole-set handoff (owners.go); and the barrier's
// termination test.
//
// Ordering. Per-set program order is preserved per producer: operations a
// producer sends to one set stay in order (one lane, FIFO across ring and
// spill). For the execution to stay deterministic under Recursive, a
// serialization set must receive delegations from only one producer
// context per isolation epoch — the natural structure of
// divide-and-conquer programs, enforced in Checked mode (owners.go).
//
// Inbox. The program context is context 0 built from the same parts
// (Runtime.prog): the delegates feed its lanes, one each, when asked (shed),
// and it drains them with drainLane/execSpan while it waits in a barrier.
// Its sleep flag and wake channel are where it parks in every wait
// (watchdog.go): delegates rouse it when they serve a marker, free slots on
// the program lane it waits on, or shed into its inbox.
//
// Helping. The program context reaches a barrier with the epoch still
// queued, where it would sit parked on the delegates' markers. Instead it
// asks the most occupied delegate for work once the barrier has been open
// for helpAfter (wait, askForWork), and that delegate answers at its next
// operation boundary by dealing whole chains to its inbox lane (shed),
// which the program context runs as context 0 through the drain loop's
// own span. Only barriers help, never under Recursive; the inbox lanes are
// as deep as the program lanes, so a hand-over never spills.

// Wake-state values for the delegate parking protocol.
const (
	delegateAwake    int32 = iota // running (or about to re-check)
	delegateSleeping              // parked on its wake channel
)

// Values of delegate.shedReq.
const (
	shedIdle     uint32 = iota
	shedAsked           // the program context wants work
	shedDeclined        // asked in this barrier, no whole set to spare: ask someone else
)

// counter is a cache-line-padded single-writer counter, so concurrent
// producers never contend on a shared line.
type counter struct {
	n atomic.Uint64
	_ [56]byte
}

// inc bumps the counter without an RMW — the owner is the only writer —
// and returns the new value.
func (c *counter) inc() uint64 {
	n := c.n.Load() + 1
	c.n.Store(n)
	return n
}

// delegate is one delegate context: its inbound lanes, its half of the
// ledger, and the parking state of its drain goroutine.
type delegate struct {
	id    int                      // context id (1-based)
	lanes []*spsc.Lane[Invocation] // indexed by producer context id

	// pending is the lane-readiness bitmask, one bit per producer lane
	// (64 lanes per word). Bit p is set by producer p after a push and
	// cleared wholesale by the delegate when it claims a word's lanes for
	// draining; because the delegate drains a claimed lane until empty and
	// every push is followed by the OR, no work is ever stranded behind a
	// cleared bit.
	pending []atomic.Uint64
	// sleep/wake park the delegate when every pending word is zero.
	sleep atomic.Int32
	wake  chan struct{}
	// shedReq is the program context's request for work: raised only inside
	// a barrier, after this delegate's marker was pushed; polled per operation.
	shedReq atomic.Uint32

	// sent[p] counts every message (method, sync, terminate) producer p has
	// pushed into lane p — bumped BEFORE the push. exec[p] publishes how
	// many of them this delegate has finished executing, stored at drain-run
	// boundaries and before every sync/terminate signal.
	sent []counter
	exec []atomic.Uint64

	// Everything above is read by producers on every delegation and
	// written (if at all) only when the delegate parks; everything below is
	// written by the delegate's own goroutine as it drains. The pad keeps
	// the two groups on different cache lines.
	_ [64]byte

	// drainBatches/drainedOps count the batched lane drains; aggregated
	// into Stats by the program context.
	drainBatches atomic.Uint64
	drainedOps   atomic.Uint64

	// Shedding state, private to the drain goroutine and reused across
	// barriers: the split buffer and, per set dealt in one split, whether
	// it stays; sheds counts hand-overs (Stats.Sheds).
	held  []Invocation
	dealt map[uint64]bool
	sheds atomic.Uint64

	// prodSet is the serialization set of the method invocation currently
	// executing (noSetID for pool tasks), written and read only by this
	// delegate's goroutine: a nested delegation it issues marks that set as
	// producing (owners.go, notePosition), and Owned checks read it as the
	// executing set.
	prodSet uint64
}

// newDelegate builds delegate id with one lane per producer context: lane
// 0, the program context's, of progCap slots, every other lane of capacity.
func newDelegate(id, producers, progCap, capacity int, pool *spsc.NodePool[Invocation]) *delegate {
	d := &delegate{
		id:      id,
		pending: make([]atomic.Uint64, (producers+63)/64),
		wake:    make(chan struct{}, 1),
		sent:    make([]counter, producers),
		exec:    make([]atomic.Uint64, producers),
		dealt:   make(map[uint64]bool),
		prodSet: noSetID, // nothing executing yet: attribute to no set
	}
	for p := 0; p < producers; p++ {
		c := capacity
		if p == ProgramContext {
			c = progCap
		}
		d.lanes = append(d.lanes, spsc.NewLanePooled[Invocation](c, pool))
	}
	return d
}

// occupancy returns the delegate's backlog: messages routed to any of its
// lanes that it has not finished executing — queued plus in-flight. Readers
// are arbitrary contexts racing both counters, so per lane the executed
// side is loaded FIRST: executed(t1) <= sent(t1) <= sent(t2) (both are
// monotone and sent is bumped before the push), so the difference cannot
// underflow however far the lane moves between the two loads.
func (d *delegate) occupancy() uint64 {
	var occ uint64
	for p := range d.sent {
		exec := d.exec[p].Load()
		occ += d.sent[p].n.Load() - exec
	}
	return occ
}

// notify publishes lane `producer` as pending and wakes the delegate if it
// is parked. The OR is skipped when the bit is already set (the common
// case on a busy lane — one shared load instead of an RMW): bit p has a
// single setter, so observing it set means the delegate has not claimed
// the word since, and its claim-then-drain-to-empty discipline will find
// the value just pushed. The wake check must still run — a parked
// delegate and a set bit can coexist only in the instant between a push
// and this call, and the sleep-flag handshake (seq-cst store/load on both
// sides) closes it.
func (d *delegate) notify(producer int) {
	w := &d.pending[producer>>6]
	bit := uint64(1) << (producer & 63)
	if w.Load()&bit == 0 {
		w.Or(bit)
	}
	d.rouse()
}

// rouse wakes d if it is parked: notify's wake check, which also wakes the
// program context with no lane to raise — after a marker was served or
// program-lane slots were freed.
func (d *delegate) rouse() {
	if d.sleep.Load() == delegateSleeping {
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
}

// anyPending reports whether any lane bit is raised (the pre-park re-check).
func (d *delegate) anyPending() bool {
	for i := range d.pending {
		if d.pending[i].Load() != 0 {
			return true
		}
	}
	return false
}

// Delegate assigns fn to the serialization set's context and returns that
// context id. In Sequential mode every operation runs inline on the program
// context, preserving per-set program order.
func (rt *Runtime) Delegate(set uint64, fn func(ctx int)) int {
	if rt.terminated {
		panic("prometheus: Delegate after Terminate")
	}
	return rt.delegate(ProgramContext, set, closureCall(set, fn))
}

// DelegateCall is the zero-allocation delegation fast path: instead of a
// closure it takes a static trampoline plus two payload words, written by
// value into the program context's ring lane on the set's owner. Wrapper
// layers bind one trampoline per wrapper type, so a steady-state
// DelegateCall performs no heap allocation and O(1) work, traced or not.
func (rt *Runtime) DelegateCall(set uint64, tr Trampoline, p1, p2 unsafe.Pointer) int {
	if rt.terminated {
		panic("prometheus: Delegate after Terminate")
	}
	return rt.delegate(ProgramContext, set, Invocation{kind: kindMethod, set: set, tramp: tr, p1: p1, p2: p2})
}

// DelegateFrom routes a delegation issued by an arbitrary execution context
// (recursive delegation). producer must be the context id actually running
// the call. Requires Config.Recursive (or Sequential debug mode).
func (rt *Runtime) DelegateFrom(producer int, set uint64, fn func(ctx int)) int {
	rt.requireRecursive()
	return rt.delegate(producer, set, closureCall(set, fn))
}

// DelegateFromCall is the zero-allocation counterpart of DelegateFrom: the
// trampoline fast path for delegations issued from inside delegated
// operations.
func (rt *Runtime) DelegateFromCall(producer int, set uint64, tr Trampoline, p1, p2 unsafe.Pointer) int {
	rt.requireRecursive()
	return rt.delegate(producer, set, Invocation{kind: kindMethod, set: set, tramp: tr, p1: p1, p2: p2})
}

func (rt *Runtime) requireRecursive() {
	if !rt.cfg.Recursive && !rt.cfg.Sequential {
		panic("prometheus: recursive delegation requires the Recursive option")
	}
}

// delegate routes one method invocation from producer context `producer`
// to the owner of its set — the single delegation path of every
// configuration. The steady-state cost is one padded-counter bump, one
// ring write, one pending-bit load (or OR), and one sleep-flag load — no
// allocation, no contended atomics.
func (rt *Runtime) delegate(producer int, set uint64, inv Invocation) int {
	if rt.cfg.Sequential {
		rt.stats.InlineExecs++
		if ts := rt.traceSt; ts != nil {
			ts.invoke(&inv, ProgramContext)
		} else {
			inv.invoke(ProgramContext)
		}
		return ProgramContext
	}
	if rt.cfg.Checked && set == noSetID {
		// The engine reserves this one id as the pool-task sentinel: a user
		// set named by it would never be poisoned or dropped after a fault
		// and would never be marked as producing, so it could be stolen
		// while its nested sets have operations in flight. Turn that into
		// the diagnostic every other discipline violation gets.
		panic("prometheus: serialization set id ^uint64(0) is reserved by the engine (pool-task sentinel); use any other id")
	}
	if fs := rt.faults.Load(); fs != nil && rt.maybeDrop(fs, set) {
		// The set is poisoned this epoch: drop-but-count, touching no
		// ledger (the operation never enters one).
		return rt.ContextFor(set)
	}
	owner, e := rt.route(producer, set)
	if producer == ProgramContext {
		rt.stats.Delegations++
	}
	d := rt.delegates[owner-1]
	pos := d.sent[producer].inc()
	if e != nil {
		rt.notePosition(e, producer, pos)
	}
	if producer == ProgramContext {
		rt.pushProgram(d, inv)
	} else {
		// Delegate producers must never block (self-delegation, cycles);
		// ring overflow goes to the lane's spill list.
		d.lanes[producer].Push(inv)
	}
	d.notify(producer)
	return owner
}

// pushProgram puts inv on d's program lane. The program context is never
// inside a delegation cycle, so on a full lane it waits for room:
// bounded-queue backpressure instead of unbounded spill growth when the
// program outruns the delegates, and the push never spills.
func (rt *Runtime) pushProgram(d *delegate, inv Invocation) {
	lane := d.lanes[ProgramContext]
	if lane.Full() {
		rt.wait(d, false)
	}
	lane.Push(inv)
}

// send delivers a control or pool-task message from the program context
// straight to a delegate's program lane, counted in the ledger like every
// other message: a lane message missing from sent would let exec overtake
// a producer's recorded positions and make an in-flight set look quiescent.
// It returns the message's lane position.
func (rt *Runtime) send(d *delegate, inv Invocation) uint64 {
	pos := d.sent[ProgramContext].inc()
	rt.pushProgram(d, inv)
	d.notify(ProgramContext)
	return pos
}

// mark sends delegate i+1 a marker of kind (kindSync or kindTerminate) and
// records its lane position in marks, for the next wait to wait on.
func (rt *Runtime) mark(i int, kind invocationKind) uint64 {
	pos := rt.send(rt.delegates[i], Invocation{kind: kind})
	rt.marks[i].Store(pos)
	return pos
}

// delegateLoop is the body of a delegate context (paper §4: repeatedly read
// invocation objects from the communication queue and execute them): claim
// pending lanes with one Swap per raised word, drain each claimed lane in
// batched runs, park when every word stays zero.
func (rt *Runtime) delegateLoop(d *delegate) {
	defer rt.wg.Done()
	buf := make([]Invocation, drainBatchSize)
	spin := 0
	for {
		progress := false
		for w := range d.pending {
			if d.pending[w].Load() == 0 {
				continue // idle polls stay load-only: no RMW stealing the producers' line
			}
			claimed := d.pending[w].Swap(0)
			for claimed != 0 {
				p := w<<6 | bits.TrailingZeros64(claimed)
				claimed &= claimed - 1
				drained, terminate := rt.drainLane(d, p, buf)
				if terminate {
					return
				}
				progress = progress || drained
			}
		}
		if progress {
			spin = 0
			continue
		}
		spin++
		if spin < spinBeforePark {
			if spin%16 == 0 {
				runtime.Gosched()
			}
			continue
		}
		// Park until a producer raises a bit. Re-check after arming the
		// sleep flag to avoid a lost wakeup (producers load the flag after
		// their OR).
		d.sleep.Store(delegateSleeping)
		if d.anyPending() {
			d.sleep.Store(delegateAwake)
			spin = 0
			continue
		}
		<-d.wake
		d.sleep.Store(delegateAwake)
		spin = 0
	}
}

// drainLane empties one claimed lane in batched runs: values are popped
// drainBatchSize at a time and executed back to back, with exec[p]
// published once per run rather than once per operation. A producer that
// observes exec[p] >= its recorded position knows that message, and the
// FIFO lane prefix before it, has finished. It returns whether anything
// was drained, and whether a termination object was served (the loop must
// exit). Draining to empty is what makes the claimed-then-cleared pending
// bit safe: any value pushed after the final empty observation re-raises
// the bit.
//
// Execution runs in recover()-protected spans (execSpan) — one deferred
// recover per run when fault-free, re-entered after each contained panic
// so the delegate survives and the run's tail still executes against the
// fresh fault state, or after a shed request, over what the delegate kept.
func (rt *Runtime) drainLane(d *delegate, p int, buf []Invocation) (drained, terminate bool) {
	lane, le := d.lanes[p], &d.exec[p]
	// Single writer: this delegate.
	base := le.Load()
	for {
		n := lane.PopBatch(buf)
		if n == 0 {
			return drained, false
		}
		if p == ProgramContext && rt.roomOn.Load() == int32(d.id) {
			rt.prog.rouse() // slots freed on the lane the program context waits on
		}
		drained = true
		d.drainBatches.Add(1)
		d.drainedOps.Add(uint64(n))
		run := buf[:n]
		for i := 0; i < len(run); {
			if d.shedReq.Load() == shedAsked {
				// run[:i] has executed; continue with what shed keeps.
				run, base = rt.shed(d, lane, le, run[i:], base+uint64(i))
				clear(buf[:n])
				i = 0
				continue
			}
			next, term := rt.execSpan(d, run, i, le, base, rt.faults.Load())
			if term {
				clear(run)
				return true, true
			}
			i = next
		}
		base += uint64(len(run))
		le.Store(base)
		// Drop payload references so executed invocations don't pin their
		// closures and payloads until the buffer is refilled.
		clear(run)
	}
}

// execSpan executes run[start:] of one lane under a single deferred
// recover; base is the lane's exec count before the run. A recovered panic
// records the fault (poisoning the set), counts the faulted operation as
// executed, and publishes exec before returning, so quiescence proofs,
// handoff coverage checks and barriers advance past the faulted operation
// and the publish carries the happens-before edge that makes the poison
// deterministic for every observer of those proofs. Operations of a
// poisoned set are skipped-but-counted; a poisoned set is never stolen
// (maybeSteal) and never shed, so its backlog always drains on the context
// that wrote the poison and the skip point stays exact. fs is reloaded by
// the caller at each span entry — once per run on the fault-free path — so
// a fault anywhere in the run poisons the remainder of its set's operations
// in the SAME run. d is the executing context: a delegate, or Runtime.prog
// running its inbox. The span also ends, before run[next], when d is asked
// for work: the caller sheds and re-enters.
func (rt *Runtime) execSpan(d *delegate, run []Invocation, start int, le *atomic.Uint64, base uint64, fs *faultState) (next int, terminated bool) {
	i := start
	defer func() {
		if v := recover(); v != nil {
			rt.recordPanic(d.id, run[i].set, v)
			le.Store(base + uint64(i) + 1)
			next, terminated = i+1, false
		}
	}()
	inject, ts := rt.cfg.FaultInjector, rt.traceSt
	for ; i < len(run); i++ {
		inv := &run[i]
		switch inv.kind {
		case kindMethod:
			if d.shedReq.Load() == shedAsked {
				return i, false
			}
			if fs != nil && inv.set != noSetID && fs.lookup(inv.set) != nil {
				fs.dropped.Add(1)
				continue
			}
			// Stamp the producing set before running the operation: a
			// nested delegation it issues marks this set as producing
			// (notePosition), and Owned checks read it as the executing
			// set. One plain store; only this goroutine reads it back.
			d.prodSet = inv.set
			if inject != nil {
				inject(d.id, inv.set)
			}
			if ts != nil {
				// Every executed operation on every context passes here, so a
				// trace describes the measured path.
				ts.invoke(inv, d.id)
				continue
			}
			inv.invoke(d.id)
		case kindSync, kindTerminate:
			// A marker is its lane position: publishing it is the signal,
			// and it also counts every earlier message.
			le.Store(base + uint64(i) + 1)
			rt.prog.rouse()
			if inv.kind == kindTerminate {
				return i, true
			}
		}
	}
	return len(run), false
}

// shed answers the program context's request for work, at an operation
// boundary: rest is the unexecuted tail of the current run, base the lane's
// exec count before rest[0]. The request is only raised inside a barrier,
// after this delegate's marker was pushed and with the program context —
// the lane's only producer — blocked, so the delegate can pop its lane
// empty and hold the complete remainder of the epoch, marker last. It deals
// the remaining chains — whole sets' operations, in order; pool tasks one
// by one — alternately in order of first appearance: the chain of its own
// next operation stays, the next goes to its inbox lane, the one after
// stays. A poisoned set stays where its poison was written. Dealing rather
// than cutting at the midpoint gives each side about half the work even
// when the epoch is ordered by cost, as freqmine's items are: a cut hands
// one side the costly end. It returns what it kept and the new base, and
// wakes the program context: to run what it got or, declined, to ask
// another delegate.
//
// Invariants. (1) Per-set order, exactly once: a chain moves whole at an
// operation boundary, and its only producer cannot route to the set again
// until the barrier closes, which waits for the inbox. (2) Every lane keeps
// one producer and one consumer; nothing is un-pushed. (3) The ledger stays
// balanced: shed messages count in exec as they leave, and the inbox keeps
// its own sent/exec pair.
func (rt *Runtime) shed(d *delegate, lane *spsc.Lane[Invocation], le *atomic.Uint64, rest []Invocation, base uint64) ([]Invocation, uint64) {
	// rest may be the tail of d.held itself: append moves it down in place.
	old := len(d.held)
	h := append(d.held[:0], rest...)
	for {
		h = slices.Grow(h, drainBatchSize)
		n := lane.PopBatch(h[len(h):cap(h)])
		if n == 0 {
			break
		}
		h = h[:len(h)+n]
		d.drainBatches.Add(1)
		d.drainedOps.Add(uint64(n))
	}
	clear(d.dealt)
	fs := rt.faults.Load()
	inbox := rt.prog
	kept, chains := 0, 0
	for i := range h {
		inv := &h[i]
		keep := true
		if inv.kind == kindMethod {
			switch dealt, ok := d.dealt[inv.set]; {
			case inv.set == noSetID: // a pool task is a chain of its own
				keep = chains%2 == 0
				chains++
			case ok:
				keep = dealt
			case fs != nil && fs.lookup(inv.set) != nil: // stays where its poison was written
			default:
				keep = chains%2 == 0
				chains++
				d.dealt[inv.set] = keep
			}
		}
		if keep {
			h[kept] = *inv
			kept++
			continue
		}
		inbox.sent[d.id].inc()
		inbox.lanes[d.id].Push(*inv)
	}
	answer := shedDeclined
	if n := len(h) - kept; n > 0 {
		base += uint64(n)
		le.Store(base)
		d.sheds.Add(1)
		answer = shedIdle
	}
	d.shedReq.Store(answer)
	inbox.notify(d.id)
	clear(h[kept:max(len(h), old)])
	d.held = h[:kept]
	return d.held, base
}

// runInbox executes, as context 0, everything shed so far: the delegate
// loop's claim-and-drain pass over the program context's own lanes.
func (rt *Runtime) runInbox() {
	p := rt.prog
	for w := range p.pending {
		if p.pending[w].Load() == 0 {
			continue
		}
		for claimed := p.pending[w].Swap(0); claimed != 0; claimed &= claimed - 1 {
			rt.drainLane(p, w<<6|bits.TrailingZeros64(claimed), rt.progBuf)
		}
	}
	p.prodSet = noSetID // nothing executing: Owned checks see no set
}

// askForWork raises the request on the most occupied delegate that
// has not declined in this barrier; a marker plus one operation is nothing
// to spare.
func (rt *Runtime) askForWork() {
	var best *delegate
	most := uint64(2)
	for _, d := range rt.delegates {
		if occ := d.occupancy(); occ > most && d.shedReq.Load() != shedDeclined {
			best, most = d, occ
		}
	}
	if best != nil {
		best.shedReq.Store(shedAsked)
	}
}

// sentSum and execSum aggregate the two sides of the ledger over the pool.
func (rt *Runtime) sentSum() (sum uint64) {
	for _, d := range rt.delegates {
		for p := range d.sent {
			sum += d.sent[p].n.Load()
		}
	}
	return sum
}

func (rt *Runtime) execSum() (sum uint64) {
	for _, d := range rt.delegates {
		for p := range d.exec {
			sum += d.exec[p].Load()
		}
	}
	return sum
}

// clean reports whether delegate i+1 has been sent nothing down the
// program lane since the program context last synchronized with it.
func (rt *Runtime) clean(i int) bool {
	return rt.delegates[i].sent[ProgramContext].n.Load() == rt.synced[i]
}

// quiesce waits until every delegate has drained every lane and no
// operation remains in flight. A round sends a synchronization object down
// the program lane of each delegate and waits for all of them; the
// rounds repeat until the two sides of the ledger agree across a full
// quiet round, because under Recursive executing an operation may enqueue
// more work anywhere. Without Recursive the program context is the only
// producer: a sync object sits behind everything a delegate was ever sent,
// clean delegates are skipped, and the first round always balances.
func (rt *Runtime) quiesce() {
	// Not under Recursive: other contexts may still produce into a lent set.
	help := !rt.cfg.Recursive
	for {
		for i := range rt.delegates {
			if rt.cfg.Recursive || !rt.clean(i) {
				rt.mark(i, kindSync)
			}
		}
		before := rt.sentSum()
		rt.wait(nil, help)
		if help {
			// A delegate pushes what it sheds before it serves its marker: run
			// what is left; no request may be seen raised outside a barrier.
			rt.runInbox()
			for _, d := range rt.delegates {
				if d.shedReq.Load() != shedIdle {
					d.shedReq.Store(shedIdle)
				}
			}
		}
		for i, d := range rt.delegates {
			rt.synced[i] = d.sent[ProgramContext].n.Load()
		}
		if rt.execSum() == before && rt.sentSum() == before {
			return
		}
	}
}

// barrier waits for every delegate to finish everything delegated so far.
func (rt *Runtime) barrier() {
	if rt.cfg.Sequential {
		return
	}
	rt.stats.Barriers++
	rt.quiesce()
}

// SyncContext blocks until the given delegate context has executed every
// invocation enqueued before this call (paper: synchronization objects). It
// is how the program context reclaims ownership of a data domain. Syncing
// the program context is a no-op, and so is syncing a delegate that has
// been sent nothing since its last synchronization.
//
// Under Recursive a single-lane sync cannot witness work other contexts
// produced — a reclaim must also cover the nested operations of what it
// reclaims — so the call is the quiescence barrier.
func (rt *Runtime) SyncContext(ctx int) {
	if ctx == ProgramContext || rt.cfg.Sequential {
		return
	}
	if rt.cfg.Recursive {
		rt.stats.Syncs++
		rt.quiesce()
		return
	}
	if ctx < 1 || ctx > rt.cfg.Delegates {
		panic(fmt.Sprintf("prometheus: SyncContext(%d) out of range", ctx))
	}
	if rt.clean(ctx - 1) {
		return
	}
	rt.stats.Syncs++
	pos := rt.mark(ctx-1, kindSync)
	rt.wait(nil, false)
	rt.synced[ctx-1] = pos
}

// SyncSet blocks until all outstanding operations in the given serialization
// set have completed. Syncing the current owner suffices under stealing: a
// handoff only happens at a quiescent boundary, so any operation that ran
// on a previous owner had completed before the current owner received its
// first one.
func (rt *Runtime) SyncSet(set uint64) {
	if tbl := rt.owners.Load(); tbl != nil && !rt.cfg.Recursive && tbl.lookup(set) == nil {
		return // sticky placement, never delegated this epoch: no owner, nothing to wait for
	}
	rt.SyncContext(rt.ContextFor(set))
}

// Sleep quiesces the delegate contexts during a long aggregation epoch
// (paper: sleep()). Delegates with empty lanes park automatically in this
// implementation, so Sleep reduces to a barrier that guarantees they have
// all drained and parked.
func (rt *Runtime) Sleep() {
	if rt.inIsolation {
		panic("prometheus: Sleep during isolation epoch")
	}
	rt.barrier()
}

// RunParallel executes the given tasks on the delegate pool, round-robin,
// and waits for completion. The runtime uses it for parallel reductions
// (paper §2.2: N/2 combine operations per step run concurrently). ctx ids
// are passed through so tasks can address per-context state. Must be called
// during an aggregation epoch. In Sequential mode tasks run inline, in
// order.
func (rt *Runtime) RunParallel(tasks []func(ctx int)) {
	if rt.inIsolation {
		panic("prometheus: RunParallel during isolation epoch")
	}
	if rt.cfg.Sequential {
		for _, t := range tasks {
			t(ProgramContext)
		}
		return
	}
	for i, t := range tasks {
		// noSetID: a pool task belongs to no serialization set — it must not
		// collide with a user set in the poison table when it faults, and
		// nested delegations it issues must not be charged to whatever set
		// the delegate executed last.
		rt.send(rt.delegates[i%rt.cfg.Delegates], closureCall(noSetID, t))
	}
	rt.barrier()
}
