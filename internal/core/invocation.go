package core

import "unsafe"

// invocationKind discriminates the message types carried on the
// communication queues (paper §4: invocation objects, synchronization
// objects, termination objects).
type invocationKind uint8

const (
	kindMethod    invocationKind = iota // delegated method call
	kindSync                            // ownership-reclaim / barrier marker
	kindTerminate                       // shut down the delegate
)

// noSetID marks a method invocation that belongs to no serialization set —
// pool tasks handed out by RunParallel, which execute on delegate contexts
// but were never routed through a set. A faulting pool task poisons
// nothing, and because the drain loop stamps the executing invocation's
// set as the producing set of any nested delegations it issues (the mark
// that pins a producing set on its owner, owners.go), noSetID is also what
// keeps a task's delegations from pinning whatever set the delegate ran
// last. The engine reserves this one id — a user set named ^uint64(0)
// would never be poisoned and never pinned by its nested delegations — and
// Checked mode rejects it with a panic in every configuration
// (Runtime.delegate).
const noSetID = ^uint64(0)

// Trampoline is the statically-dispatched form of a delegated operation:
// a plain function pointer plus two payload words. Wrapper layers bind one
// trampoline per wrapper type (not per call), so a steady-state delegation
// constructs no closure — the payload words typically carry the wrapper
// pointer and the user callback's funcval pointer, reinterpreted by the
// trampoline on the executing context. Both words are scanned by the GC as
// pointers, so referenced objects stay alive while the invocation is in
// flight.
type Trampoline func(ctx int, p1, p2 unsafe.Pointer)

// Invocation is the unit of communication between the program context and a
// delegate context. It is carried by value in the communication rings, so
// enqueueing one allocates nothing. For kindMethod it carries a static
// trampoline with two payload words, plus the serialization-set id it was
// mapped to — a closure (the closure API, RunParallel tasks) is closureTramp
// with the closure's funcval pointer as payload. kindSync and kindTerminate
// carry nothing: a marker is its lane position, which the delegate
// publishes in exec before it wakes the program context and (for
// terminate) exits.
type Invocation struct {
	kind  invocationKind
	set   uint64
	tramp Trampoline
	p1    unsafe.Pointer
	p2    unsafe.Pointer
	_     [16]byte // 56 bytes: with its sequence stamp a ring slot (spsc) is exactly one cache line
}

// invoke runs a kindMethod invocation on the given context.
func (inv *Invocation) invoke(ctx int) { inv.tramp(ctx, inv.p1, inv.p2) }

// closureTramp runs a func(ctx int) carried as its funcval pointer: a Go
// func value is one pointer word, so the closure the caller already built
// rides in the payload slot (kept alive by the GC like any payload) and
// delegating it allocates nothing further.
func closureTramp(ctx int, p1, _ unsafe.Pointer) {
	(*(*func(int))(unsafe.Pointer(&p1)))(ctx)
}

// closureCall is the method invocation that runs fn for set.
func closureCall(set uint64, fn func(ctx int)) Invocation {
	return Invocation{kind: kindMethod, set: set, tramp: closureTramp, p1: *(*unsafe.Pointer)(unsafe.Pointer(&fn))}
}
