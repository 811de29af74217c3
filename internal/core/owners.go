package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Placement: the owner table, the per-set half of the ledger, and the
// occupancy-aware rebalancer.
//
// Under StaticMod a set's owner is its id modulo the active pool, plus one,
// and nothing here runs except the Checked-mode producer registry (an owner
// table used for its entries' producer field alone). Under
// LeastLoaded a set is placed on first touch — on the least-occupied active
// delegate other than its producer's own — stays sticky for the epoch, and
// with Stealing may be handed off, whole, at a quiescent boundary. The
// paper's scalability argument rests on sets being free to move between
// delegates: per-set program order is the only invariant.
//
// The quiescent handoff. Delegations to a set may arrive from MANY producer
// contexts over an epoch, each through its own lane, so "the set is
// quiescent on its owner" is one position per producer against one executed
// counter per lane (with one producer the check degenerates to a single
// compare):
//
//   - The owner table's entry for a set records, per producer, the lane
//     position (delegate.sent) of the set's newest operation on the current
//     owner (setEntry.lastPos). A set is quiescent on its owner exactly when
//     EVERY producer's recorded position is covered by the owner's exec
//     counter for that producer's lane. In-flight work needs no lock and no
//     explicit ack from the victim: the victim's per-lane exec publishes
//     ARE the ack.
//
//   - Only the set's producer (one context per set per isolation epoch)
//     routes operations to it, so the migration itself is a single-writer
//     update: zero every former producer's lastPos (positions are relative
//     to the OLD owner's counters, and the migration-time quiescence proof
//     makes them moot), fence the producer's own lastPos at the thief's
//     current lane position so the set cannot immediately migrate again
//     ahead of work already queued in the thief's lane, then store the
//     thief as owner. Everything delegated to the set before the handoff
//     has executed on the victim before the first operation after it is
//     enqueued on the thief, so per-set program order — and with it the
//     model's determinism — is preserved by construction; only placement
//     responds to load.
//
//   - Migrating a set also moves the PRODUCER ROLE its operations play:
//     operations of the migrated set that delegate further (nested sets)
//     start arriving through the thief's lanes instead of the victim's.
//     That handover is only safe if nothing THE MIGRATING SET'S OWN
//     operations pushed through the victim's lanes is still in flight —
//     the outbound-coverage condition, checked against a precise per-set
//     outbound ledger. While an operation of set S executes on S's owner
//     v, the drain loop stamps S as v's producing set (delegate.prodSet);
//     every nested delegation that operation issues records its lane
//     position into S's entry (setEntry.outPos[d]). S may migrate away
//     from v exactly when, for every target d, outPos[d] is covered by d's
//     exec[v]: lanes are FIFO, so coverage proves every nested delegation
//     S's operations ever issued from v has executed. Traffic that OTHER
//     sets' operations pushed through v's lanes targets nested sets S never
//     feeds (the producer discipline below), so its coverage is irrelevant
//     to S's handover — waiting on it would let unrelated streams veto a
//     forced evacuation forever while the program blocks on it.
//
//     The ledger write is attribution by execution context: only v runs
//     S's operations, only while one is executing, so outPos has a single
//     writer at any time, and it is frozen whenever S is quiescent on v.
//     The migration check therefore reads stable values: quiescence is
//     checked first, and the exec publishes that proved it are the
//     release/acquire edge that makes all prior outPos stores visible.
//
//     route double-checks the property per nested set: a delegation that
//     changes a set's recorded producer must find the set quiescent, which
//     Checked mode enforces with a panic. Under dynamic placement the
//     program-side discipline is therefore sharper than one context per
//     set: a nested set must receive its delegations from the operations
//     of ONE producing set (or from the program context). Two parent sets
//     on one delegate feeding the same nested set satisfies the static
//     one-context rule, but migrating either parent would split the nested
//     set's delegations across two contexts with no mutual order, which no
//     ledger can prevent at migration time.
//
//   - One placement is migrated regardless of load: a set owned by its own
//     producer's delegate (a producer handover can create this) is
//     force-evacuated, because every operation routed there would be a
//     self-delegation the producer may block on. The evacuation needs the
//     same quiescence + outbound-coverage conditions as an ordinary steal;
//     when only coverage is missing — and the uncovered lanes target OTHER
//     delegates, which drain independently — the producer waits for
//     coverage on the spot (a bounded poll of the ledger:
//     waitOutboundCoverage) instead of retrying on a future delegation
//     that a blocking program may never issue.

// setEntry is the owner table's record of one serialization set. All
// fields are atomics: the set's single producer writes them, but the
// program context (stats, resize accounting) and — under a violated
// producer discipline, which Checked mode turns into a panic — other
// contexts may observe them.
type setEntry struct {
	// owner is the context id of the delegate currently executing the set.
	owner atomic.Int32
	// producer is the context that most recently delegated to the set (-1
	// until the first delegation). A producer change is a handover: legal
	// only at a quiescent point of the set, because the new producer's lane
	// has no order against in-flight operations in the old producer's lane.
	// Handovers happen legitimately when the set that ISSUES these
	// delegations migrates — the outbound-coverage condition in maybeSteal
	// guarantees the quiescence this check then observes.
	producer atomic.Int32
	// lastPos[p] is the lane position (delegate.sent[p] of the owner) of the
	// set's newest operation from producer p — the value the owner's exec[p]
	// must reach before the set may move.
	lastPos []atomic.Uint64
	// outPos[d] is the per-set outbound ledger: the lane position of the
	// newest nested delegation THIS SET'S operations pushed into delegate
	// d+1's lane `owner`. Written by the owner's drain goroutine while one
	// of the set's operations executes (noteOutbound), read by the set's
	// producer at migration checks, zeroed at migration. Nil without
	// Recursive: nothing nests.
	outPos []atomic.Uint64
	// pos0 backs lastPos when the program context is the only producer, so
	// a first touch allocates the entry and nothing else.
	pos0 [1]atomic.Uint64
}

// newSetEntry returns an unclaimed entry placed on owner.
func (rt *Runtime) newSetEntry(owner int) *setEntry {
	e := &setEntry{}
	if rt.cfg.Recursive {
		n := rt.cfg.MaxDelegates
		pos := make([]atomic.Uint64, 2*n+1) // one per producer context, one per delegate
		e.lastPos, e.outPos = pos[:n+1], pos[n+1:]
	} else {
		e.lastPos = e.pos0[:]
	}
	e.owner.Store(int32(owner))
	e.producer.Store(-1)
	return e
}

// quiescentOn reports whether every producer's recorded position for the
// set is covered by delegate owner's per-lane exec counters — the safe
// handoff (and producer-handover) boundary.
func (e *setEntry) quiescentOn(owner *delegate) bool {
	for q := range e.lastPos {
		if e.lastPos[q].Load() > owner.exec[q].Load() {
			return false
		}
	}
	return true
}

// ownerTable is the concurrent set->entry map, specialized to uint64 keys
// so the lookup every dynamically-placed delegation performs allocates
// nothing (a sync.Map would box every set id into an interface). Reads are
// lock-free: bucket heads are atomic pointers to immutable chain nodes, so
// a lookup is one scrambled-hash index plus a chain walk. Inserts — once
// per set per epoch — serialize on one mutex, re-check under it, and grow
// the bucket array by rehashing into fresh nodes (readers keep walking the
// old array; anything they miss sends them to the insert path, which
// re-checks).
type ownerTable struct {
	buckets atomic.Pointer[[]atomic.Pointer[setNode]]
	mu      sync.Mutex
	count   int
}

type setNode struct {
	set   uint64
	entry *setEntry
	next  *setNode // immutable after the node is published
}

// minOwnerBuckets is the smallest bucket array (doubles when load factor
// passes 2 chained entries per bucket).
const minOwnerBuckets = 256

// newOwnerTable returns an empty table with room for sets entries before
// its first grow — a new epoch's table is sized to what the closing one
// held, so a steady working set never pays for rehashing.
func newOwnerTable(sets int) *ownerTable {
	n := minOwnerBuckets
	for 2*n < sets {
		n *= 2
	}
	t := &ownerTable{}
	b := make([]atomic.Pointer[setNode], n)
	t.buckets.Store(&b)
	return t
}

// mixSet scrambles a set id into a bucket hash (SplitMix64 finalizer).
func mixSet(set uint64) uint64 {
	set += 0x9e3779b97f4a7c15
	set = (set ^ (set >> 30)) * 0xbf58476d1ce4e5b9
	set = (set ^ (set >> 27)) * 0x94d049bb133111eb
	return set ^ (set >> 31)
}

// lookup returns the set's entry, or nil. Lock- and allocation-free.
func (t *ownerTable) lookup(set uint64) *setEntry {
	b := *t.buckets.Load()
	for n := b[mixSet(set)&uint64(len(b)-1)].Load(); n != nil; n = n.next {
		if n.set == set {
			return n.entry
		}
	}
	return nil
}

// insert publishes entry for set unless another producer got there first,
// returning the entry that won.
func (t *ownerTable) insert(set uint64, entry *setEntry) *setEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.lookup(set); e != nil {
		return e // lost the publish race; adopt the winner
	}
	b := *t.buckets.Load()
	if t.count >= 2*len(b) {
		b = t.grow(b)
	}
	slot := &b[mixSet(set)&uint64(len(b)-1)]
	slot.Store(&setNode{set: set, entry: entry, next: slot.Load()})
	t.count++
	return entry
}

// grow doubles the bucket array, rehashing every chain into fresh nodes
// (old nodes stay intact for concurrent readers), and publishes it.
// Caller holds mu.
func (t *ownerTable) grow(old []atomic.Pointer[setNode]) []atomic.Pointer[setNode] {
	nb := make([]atomic.Pointer[setNode], 2*len(old))
	for i := range old {
		for n := old[i].Load(); n != nil; n = n.next {
			slot := &nb[mixSet(n.set)&uint64(len(nb)-1)]
			slot.Store(&setNode{set: n.set, entry: n.entry, next: slot.Load()})
		}
	}
	t.buckets.Store(&nb)
	return nb
}

// len returns how many sets the table holds.
func (t *ownerTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// forEach visits every (set, entry) pair. Program context, between epochs.
func (t *ownerTable) forEach(fn func(set uint64, e *setEntry)) {
	b := *t.buckets.Load()
	for i := range b {
		for n := b[i].Load(); n != nil; n = n.next {
			fn(n.set, n.entry)
		}
	}
}

// producerStats holds one producer context's rebalancer counters, padded
// so concurrent producers never share a line; aggregated into Stats.
// Single writer each: the goroutine running that context.
type producerStats struct {
	migrations  atomic.Uint64 // whole-set handoffs performed (Stats.Steals)
	forcedEvacs atomic.Uint64 // of those, forced off the set's own producer's delegate
	outVetoes   atomic.Uint64 // migration attempts vetoed by missing outbound coverage
	outStamps   atomic.Uint64 // outbound-ledger writes recorded while this context executed
	_           [32]byte
}

func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

// checkProducer is Checked mode's one-producer-per-set rule where no owner
// table carries the producer (Recursive with static placement): the first
// context to delegate to a set this epoch is recorded in the registry's
// entry, and any other panics.
func (rt *Runtime) checkProducer(reg *ownerTable, set uint64, producer int) {
	e := reg.lookup(set)
	if e == nil {
		e = &setEntry{}
		e.producer.Store(int32(producer))
		e = reg.insert(set, e)
	}
	if prev := int(e.producer.Load()); prev != producer {
		panic(fmt.Sprintf(
			"prometheus: serializer violation: set %d delegated from context %d after context %d in one epoch (recursive delegation requires one producer per set)",
			set, producer, prev))
	}
}

// ContextFor returns the context id that operations in the given
// serialization set execute on (or would execute on), under the configured
// policy. It is a pure query: under LeastLoaded an unowned set is not
// assigned an owner — only a delegation does that.
func (rt *Runtime) ContextFor(set uint64) int {
	if rt.cfg.Sequential {
		return ProgramContext
	}
	tbl := rt.owners.Load()
	if tbl == nil {
		return int(set%uint64(rt.cfg.Delegates)) + 1
	}
	if e := tbl.lookup(set); e != nil {
		return int(e.owner.Load())
	}
	owner, _ := rt.leastOccupied(0, 0)
	return owner
}

// route resolves the context that executes a delegation to set issued by
// producer, placing the set on first touch and running the rebalancer for
// already-owned sets under dynamic placement. The returned entry is
// non-nil exactly when the set is owner-tracked; the caller records the
// operation's lane position against it (notePosition). Called only by the
// set's producer.
func (rt *Runtime) route(producer int, set uint64) (int, *setEntry) {
	tbl := rt.owners.Load()
	if tbl == nil {
		// StaticMod: the set id modulo the active pool (paper §4).
		if reg := rt.producers.Load(); reg != nil {
			rt.checkProducer(reg, set, producer)
		}
		return int(set%uint64(rt.cfg.Delegates)) + 1, nil
	}
	e := tbl.lookup(set)
	if e == nil {
		// First touch this epoch: the least-occupied delegate, never the
		// producer's own — every operation routed there would be a
		// self-delegation the producer may block waiting on.
		owner, _ := rt.leastOccupied(producer, 0)
		if owner == 0 {
			owner = producer // a one-delegate pool delegating to itself
		}
		e = tbl.insert(set, rt.newSetEntry(owner))
		rt.claim(e, set, producer)
		return int(e.owner.Load()), e
	}
	if e.producer.Load() != int32(producer) {
		rt.claim(e, set, producer)
	}
	if rt.cfg.Stealing {
		rt.maybeSteal(producer, set, e)
	}
	return int(e.owner.Load()), e
}

// claim makes producer the set's recorded producer. On a fresh entry that
// is the first touch; on a used one it is a producer handover: the set's
// delegations now arrive through a different lane, so the set must be
// quiescent — otherwise the old lane's in-flight operations have no order
// against the new lane's. The engine only causes handovers at points where
// this holds (maybeSteal's outbound-coverage condition); reaching a
// non-quiescent one means the program itself delegated the set from two
// contexts, the discipline Checked mode rejects.
func (rt *Runtime) claim(e *setEntry, set uint64, producer int) {
	prev := e.producer.Load()
	if rt.cfg.Checked && prev >= 0 && !e.quiescentOn(rt.delegates[e.owner.Load()-1]) {
		panic(fmt.Sprintf(
			"prometheus: serializer violation: set %d delegated from context %d while operations from context %d are in flight (under dynamic placement a set must receive delegations from one producing set — or the program context — per epoch; producer handover is legal only at a quiescent point)",
			set, producer, prev))
	}
	if !e.producer.CompareAndSwap(prev, int32(producer)) {
		// The CAS can only lose to another context claiming the role at the
		// same moment: two concurrent producers on one set, the violation
		// the quiescence check above can miss when both load a quiescent
		// snapshot (or both first-touch). Detect it deterministically in
		// Checked mode; unchecked runs keep last-writer-wins (the program
		// is already outside the model, so any placement is as good as
		// another).
		if rt.cfg.Checked {
			panic(fmt.Sprintf(
				"prometheus: serializer violation: set %d delegated from contexts %d and %d concurrently (under dynamic placement a set must receive delegations from one producing set — or the program context — per epoch)",
				set, producer, e.producer.Load()))
		}
		e.producer.Store(int32(producer))
	}
}

// leastOccupied returns the active delegate with the smallest ledger
// occupancy and that occupancy, skipping contexts a and b (0 skips
// nothing); 0 when no delegate qualifies. Ties go to the lowest id.
func (rt *Runtime) leastOccupied(a, b int) (best int, occ uint64) {
	occ = ^uint64(0)
	for _, d := range rt.delegates[:int(rt.active.Load())] {
		if d.id == a || d.id == b {
			continue
		}
		if o := d.occupancy(); o < occ {
			best, occ = d.id, o
		}
	}
	return best, occ
}

// notePosition records a just-counted operation's lane position against
// its set's entry, and — when a delegate context issued it — against the
// outbound ledger of the set whose operation that delegate is executing.
func (rt *Runtime) notePosition(e *setEntry, producer, owner int, pos uint64) {
	e.lastPos[producer].Store(pos)
	if producer == ProgramContext {
		return
	}
	// The producing set's entry is resolved through a one-slot cache keyed
	// on (owner table, set): runs of one set's operations pay a three-field
	// compare instead of a table walk. Pool tasks (noSetID) and sets absent
	// from the table record nothing: their traffic belongs to no migratable
	// set, so no migration's safety depends on it.
	d := rt.delegates[producer-1]
	if d.prodSet == noSetID {
		return
	}
	if tbl := rt.owners.Load(); d.prodEntry == nil || d.prodCachedSet != d.prodSet || d.prodTable != tbl {
		d.prodEntry, d.prodCachedSet, d.prodTable = tbl.lookup(d.prodSet), d.prodSet, tbl
	}
	if pe := d.prodEntry; pe != nil {
		pe.outPos[owner-1].Store(pos)
		bump(&rt.prod[producer].outStamps)
	}
}

// outboundCovered reports whether set e may hand its producer role away
// from owner v: every lane position the set's own operations recorded in
// the outbound ledger must be covered by the target delegate's exec counter
// for v's lane. Callers check quiescence first — with the set quiescent on
// v and its producer (the caller) not delegating, outPos is frozen, so the
// read races nothing.
func (rt *Runtime) outboundCovered(e *setEntry, v int) bool {
	for dx := range e.outPos {
		if e.outPos[dx].Load() > rt.delegates[dx].exec[v].Load() {
			return false
		}
	}
	return true
}

// maybeSteal is the occupancy-aware rebalancer, run by a set's producer on
// every delegation to an already-owned set when Stealing is on. If the
// set's owner has a backlog of at least the steal threshold and the set
// itself is quiescent there, the set — the whole set, never an individual
// invocation — is handed off to the least-occupied delegate, provided that
// thief is idle or at most 1/stealRatio as loaded as the victim. The common
// case (the set's newest operation still queued or running) costs two
// loads; nothing on this path takes a lock.
//
// One placement forces a migration regardless of load: the producer's own
// delegate owning the set. The set is evacuated to the least-occupied peer
// under the SAME safety conditions an ordinary steal needs; when only
// outbound coverage is missing, the producer waits for it on the spot
// (waitOutboundCoverage) rather than retrying on a later delegation: for a
// program about to block mid-operation on this very set, this delegation is
// the last scheduling decision the engine ever gets to make.
func (rt *Runtime) maybeSteal(producer int, set uint64, e *setEntry) {
	v := int(e.owner.Load())
	vd := rt.delegates[v-1]
	// O(1) fast path first: a streaming set's newest operation from this
	// producer is almost always still queued or running, and that alone
	// rules the handoff out.
	if e.lastPos[producer].Load() > vd.exec[producer].Load() {
		return
	}
	if fs := rt.faults.Load(); fs != nil && fs.lookup(set) != nil {
		// Poisoned sets are never stolen — and never force-evacuated: every
		// further delegation to the set is dropped at the producer, so the
		// self-delegation hazard cannot arise. The fast path above proved
		// this producer's newest operation covered, which happens-after the
		// faulting operation's exec publish and therefore after recordPanic
		// wrote the poison table: the check cannot race the fault.
		return
	}
	forced := v == producer // self-owned: evacuate, don't wait for load
	var vOut uint64
	if !forced {
		if vOut = vd.occupancy(); vOut < uint64(rt.cfg.StealThreshold) {
			return
		}
	}
	if !e.quiescentOn(vd) {
		return // another producer's newest op on this set is queued or running
	}
	stats := &rt.prod[producer]
	if !rt.outboundCovered(e, v) && (!forced || !rt.waitOutboundCoverage(e, v)) {
		bump(&stats.outVetoes)
		return
	}
	// Never hand a set to its own producer's context: that would silently
	// turn its operations into self-delegations.
	thief, tOut := rt.leastOccupied(v, producer)
	if thief == 0 || (!forced && tOut*stealRatio > vOut) {
		return // no peer meaningfully less occupied than the victim
	}
	if rt.cfg.Checked && (!e.quiescentOn(vd) || !rt.outboundCovered(e, v)) {
		// The checks above just passed, the set's producer is us, and both
		// conditions read monotone counters — re-reading them false means
		// the ledger itself was corrupted by a producer-discipline violation
		// the earlier snapshots missed.
		panic(fmt.Sprintf(
			"prometheus: serializer violation: set %d migrating off delegate %d while the per-set ledger shows uncovered traffic (an operation of the set, or a nested delegation it issued, is still in flight — under dynamic placement a set must receive delegations from one producing set per epoch)",
			set, v))
	}
	// Quiescent boundary reached: hand the whole set over. Recorded
	// positions are relative to ONE owner's counters and the owner is about
	// to change: left stale, former producers' entries would be compared
	// against the thief's unrelated exec and could keep the set looking
	// non-quiescent forever. Zero them, rebase the outbound ledger the same
	// way (the coverage check just proved the old owner's lanes drained;
	// the set's future operations re-record against the thief's), fence our
	// own lastPos at the thief's current lane depth, then publish the new
	// owner.
	for q := range e.lastPos {
		e.lastPos[q].Store(0)
	}
	for dx := range e.outPos {
		e.outPos[dx].Store(0)
	}
	e.lastPos[producer].Store(rt.delegates[thief-1].sent[producer].n.Load())
	e.owner.Store(int32(thief))
	bump(&stats.migrations)
	if forced {
		bump(&stats.forcedEvacs)
	}
	if ts := rt.traceSt; ts != nil {
		ts.instant(producer, TraceSteal, set, 0) // on the producer's (this goroutine's) buffer
	}
}

// evacWaitBudget bounds the forced-evacuation wait: how long a producer
// polls the target delegates' coverage before falling back to
// retry-per-delegation. The bound exists because the wait holds this
// delegate's drain loop: two delegates each waiting on coverage only the
// other can publish would otherwise block forever — a hazard only a program
// already blocking mid-operation in two places can construct, but one the
// engine must not convert from unlikely to permanent. evacPoll is the pause
// between reads of the ledger: the wait is rare and its targets drain on
// their own goroutines, so it sleeps rather than spin against them.
const (
	evacWaitBudget = 50 * time.Millisecond
	evacPoll       = 20 * time.Microsecond
)

// waitOutboundCoverage is the liveness half of the forced evacuation: a
// set owned by its own producer's delegate must leave NOW — the delegation
// being routed may be the one the producing operation blocks on, so there
// may never be another retry. The missing coverage is a concrete,
// observable event: the target delegates executing the set's recorded
// outbound positions, which they do independently of this (stuck) context,
// so the producer polls the ledger until it shows or the budget runs out.
// Traffic the set recorded into the victim's OWN lane cannot be waited out
// (only v drains it, and v is the context running this wait).
func (rt *Runtime) waitOutboundCoverage(e *setEntry, v int) bool {
	if e.outPos[v-1].Load() > rt.delegates[v-1].exec[v].Load() {
		return false
	}
	for deadline := time.Now().Add(evacWaitBudget); !rt.outboundCovered(e, v); time.Sleep(evacPoll) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}
