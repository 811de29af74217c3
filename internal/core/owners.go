package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Placement: the owner table, the per-set half of the ledger, and the
// occupancy-aware rebalancer.
//
// Placement follows Config.Stealing alone. Off, a set's owner is its id
// modulo the pool size, plus one (paper §4), and nothing here runs except
// the Checked-mode producer registry (an owner table used for its entries'
// producer field alone). On, each epoch places a set on first touch — on the
// least-occupied delegate other than its producer's own — and the set stays
// there until the rebalancer hands it off, whole, at a quiescent boundary.
// The paper's scalability argument rests on sets being free to move between
// delegates: per-set program order is the only invariant.
//
// One producer per set per epoch. Every set receives its delegations from
// one context per isolation epoch, under either placement: claim records it
// at first touch, and a second context is a serializer violation Checked
// mode panics on (unchecked runs keep last-writer-wins; the program is
// already outside the model). The engine never changes a set's producer
// itself.
//
// The quiescent handoff. With one producer the set's entry records one lane
// position — delegate.sent[producer] of the owner at the set's newest
// operation (setEntry.lastPos) — and the set is quiescent on its owner
// exactly when the owner's exec counter for that lane covers it: one
// compare, no lock, no ack from the victim — its exec publishes ARE the
// ack. Only the producer routes operations to the set, so a migration is a
// single-writer store of the new owner. Everything delegated to the set
// before the handoff has executed on the victim before the first operation
// after it is enqueued on the thief, so per-set program order — and with it
// the model's determinism — is preserved by construction; only placement
// responds to load.
//
// Only leaf sets move. Under Recursive a set's operations may delegate
// further, and the context they run on is then the producer of the nested
// sets: moving such a set would hand those nested sets a second producer
// mid-epoch, with no order between the old lane's in-flight operations and
// the new lane's. So the first nested delegation an operation of set S
// issues marks S's entry (setEntry.nests; the drain loop stamps the
// executing set as delegate.prodSet), and a marked set stays on its owner
// for the rest of the epoch. The mark is written on the owner while one of
// S's operations executes, before that operation's exec publish, and the
// rebalancer checks quiescence first, so the publish that proves S
// quiescent also makes every mark S's operations wrote visible. A leaf set
// stolen mid-epoch that later delegates is marked on its new owner and
// pinned there. Two parent sets feeding one nested set still need to share
// a context all epoch: under dynamic placement a nested set must receive
// its delegations from the operations of one producing set (or from the
// program context), or a leaf steal of one parent that later delegates
// gives the nested set a second producer.
//
// A set never lands on its own producer's delegate, where every operation
// would be a self-delegation the producer may block on: first touch and
// the thief choice both exclude that delegate, and producing sets do not
// move. Only a program that breaks the one-producer rule can put a set
// there, and nothing moves it.

// setEntry is the owner table's record of one serialization set. All
// fields are atomics: the set's single producer writes owner and lastPos,
// the owner's drain loop writes nests, and — under a violated producer
// discipline, which Checked mode turns into a panic — other contexts may
// observe them.
type setEntry struct {
	// owner is the context id of the delegate currently executing the set.
	owner atomic.Int32
	// producer is the one context that delegates to the set this epoch (-1
	// until the first delegation).
	producer atomic.Int32
	// lastPos is the lane position (delegate.sent[producer] of the owner)
	// of the set's newest operation — the value the owner's exec[producer]
	// must reach before the set may move.
	lastPos atomic.Uint64
	// nests is set by the first nested delegation one of the set's
	// operations issues: the set produces this epoch and stays put.
	nests atomic.Bool
}

// newSetEntry returns an unclaimed entry placed on owner.
func newSetEntry(owner int) *setEntry {
	e := &setEntry{}
	e.owner.Store(int32(owner))
	e.producer.Store(-1)
	return e
}

// quiescentOn reports whether the set's newest operation from producer has
// executed on delegate owner — the safe handoff boundary.
func (e *setEntry) quiescentOn(owner *delegate, producer int) bool {
	return e.lastPos.Load() <= owner.exec[producer].Load()
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

// Mix64 is the SplitMix64 finalizer, a cheap bijection: the owner table
// hashes set ids with it, and the root package re-exports it for hashing
// user keys into sets.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lookup returns the set's entry, or nil. Lock- and allocation-free.
func (t *ownerTable) lookup(set uint64) *setEntry {
	b := *t.buckets.Load()
	for n := b[Mix64(set)&uint64(len(b)-1)].Load(); n != nil; n = n.next {
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
	slot := &b[Mix64(set)&uint64(len(b)-1)]
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
			slot := &nb[Mix64(n.set)&uint64(len(nb)-1)]
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

// producerStats holds one producer context's rebalancer counter, padded so
// concurrent producers never share a line; aggregated into Stats. Single
// writer: the goroutine running that context.
type producerStats struct {
	migrations atomic.Uint64 // whole-set handoffs performed (Stats.Steals)
	_          [56]byte
}

// checkProducer is Checked mode's one-producer-per-set rule where no owner
// table carries the producer (Recursive with static placement): the
// registry's entry for the set is claimed like an owner-table entry.
func (rt *Runtime) checkProducer(reg *ownerTable, set uint64, producer int) {
	e := reg.lookup(set)
	if e == nil {
		e = reg.insert(set, newSetEntry(0))
	}
	rt.claim(e, set, producer)
}

// ContextFor returns the context id that operations in the given
// serialization set execute on (or would execute on). It is a pure query:
// under Stealing an unowned set is not assigned an owner — only a delegation
// does that.
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
// already-owned sets under Stealing. The returned entry is non-nil exactly
// when the set is owner-tracked; the caller records the operation's lane
// position against it (notePosition). Called only by the set's producer.
func (rt *Runtime) route(producer int, set uint64) (int, *setEntry) {
	tbl := rt.owners.Load()
	if tbl == nil {
		// No stealing: the set id modulo the pool size (paper §4).
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
		e = tbl.insert(set, newSetEntry(owner))
		rt.claim(e, set, producer)
		return int(e.owner.Load()), e
	}
	rt.claim(e, set, producer)
	rt.maybeSteal(producer, set, e)
	return int(e.owner.Load()), e
}

// claim makes producer the set's recorded producer: one context per set per
// epoch. A second context is a serializer violation — its lane has no order
// against the first one's in-flight operations, and the engine never
// changes a set's producer itself — which Checked mode panics on, however
// quiescent the set; unchecked runs keep last-writer-wins (the program is
// already outside the model, so any placement is as good as another). The
// Swap also catches two contexts first-touching one set at once.
func (rt *Runtime) claim(e *setEntry, set uint64, producer int) {
	p := int32(producer)
	if e.producer.Load() == p {
		return
	}
	if prev := e.producer.Swap(p); prev >= 0 && prev != p && rt.cfg.Checked {
		panic(fmt.Sprintf(
			"prometheus: serializer violation: set %d delegated from context %d after context %d in one epoch (recursive delegation requires one producer per set per epoch)",
			set, producer, prev))
	}
}

// leastOccupied returns the delegate with the smallest ledger
// occupancy and that occupancy, skipping contexts a and b (0 skips
// nothing); 0 when no delegate qualifies. Ties go to the lowest id.
func (rt *Runtime) leastOccupied(a, b int) (best int, occ uint64) {
	occ = ^uint64(0)
	for _, d := range rt.delegates {
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
// its set's entry and, when a delegate context issued it, marks the set
// whose operation that delegate is executing as producing: it stays on its
// owner for the rest of the epoch. Pool tasks (noSetID) and sets absent
// from the table mark nothing: no migration moves them.
func (rt *Runtime) notePosition(e *setEntry, producer int, pos uint64) {
	e.lastPos.Store(pos)
	if producer == ProgramContext {
		return
	}
	if ps := rt.delegates[producer-1].prodSet; ps != noSetID {
		if pe := rt.owners.Load().lookup(ps); pe != nil && !pe.nests.Load() {
			pe.nests.Store(true)
		}
	}
}

// maybeSteal is the occupancy-aware rebalancer, run by a set's producer on
// every delegation to an already-owned set. If the set is quiescent on its
// owner, produces nothing this epoch and is not poisoned, and the owner has
// a backlog of at least the steal threshold, the set — the whole set, never
// an individual invocation — is handed off to the least-occupied delegate
// other than its producer's, provided that thief is idle or at most
// 1/stealRatio as loaded as the victim. The common case (the set's newest
// operation still queued or running) costs two loads; nothing on this path
// takes a lock.
func (rt *Runtime) maybeSteal(producer int, set uint64, e *setEntry) {
	v := int(e.owner.Load())
	vd := rt.delegates[v-1]
	// Quiescence first: the owner's exec publish that proves it is also the
	// edge that makes the nests mark of the set's executed operations
	// visible.
	if !e.quiescentOn(vd, producer) || e.nests.Load() {
		return
	}
	if fs := rt.faults.Load(); fs != nil && fs.lookup(set) != nil {
		// Poisoned sets are never stolen. Quiescence happens-after the
		// faulting operation's exec publish and therefore after recordPanic
		// wrote the poison table: the check cannot race the fault.
		return
	}
	vOut := vd.occupancy()
	if vOut < uint64(rt.cfg.StealThreshold) {
		return
	}
	thief, tOut := rt.leastOccupied(v, producer)
	if thief == 0 || tOut*stealRatio > vOut {
		return // no peer meaningfully less occupied than the victim
	}
	// Quiescent boundary reached: hand the whole set over. lastPos is
	// relative to the old owner's counters; the delegation being routed
	// overwrites it with its position in the thief's lane before anything
	// reads it again.
	e.owner.Store(int32(thief))
	m := &rt.prod[producer].migrations
	m.Store(m.Load() + 1) // single writer: no read-modify-write
	if ts := rt.traceSt; ts != nil {
		ts.instant(producer, TraceSteal, set, 0) // on the producer's (this goroutine's) buffer
	}
}
