package prometheus

import (
	"unsafe"

	"repro/internal/core"
)

// wstate is the per-epoch state of a Writable wrapper (paper §3.1: "The
// writable wrapper maintains a state machine that signals an error if the
// object is treated as read-only and privately-writable in the same
// isolation epoch").
type wstate uint8

const (
	stateUnused   wstate = iota // not yet touched this epoch
	stateReadOnly               // used as read-only this epoch
	statePrivate                // used as privately-writable this epoch
)

// Writable wraps an object in the privately-writable domain (paper's
// writable<T, S>). The object is constructed inside the wrapper and all
// access is mediated: Delegate assigns independent operations to the
// delegate context, Call performs a dependent operation in the program
// context (reclaiming ownership first if needed), and CallRO reads the
// object in its read-only role.
//
// A Writable may be used as read-only or privately-writable, but not both,
// within one isolation epoch; with Checked enabled the runtime detects
// violations and panics with *Error.
//
// All methods must be called from the program context. To operate on a
// Writable from inside a delegated closure, capture the *T the closure
// receives — never the wrapper.
type Writable[T any] struct {
	rt       *Runtime
	obj      T
	instance uint64
	ser      Serializer[T]
	// tramp is the wrapper type's static delegation trampoline, bound once
	// at construction so Delegate/DelegateTo build no closure per call.
	tramp core.Trampoline

	// Per-epoch state, versioned lazily by epoch tag.
	epoch       uint64
	state       wstate
	set         uint64 // serializer-consistency tag (first set this epoch)
	hasSet      bool
	ownerCtx    int
	outstanding bool // delegations not yet synchronized
}

// writableTramp is the Writable delegation trampoline: one instantiation
// per wrapped type, shared by every wrapper and every call. p1 is the
// wrapper, p2 the user callback's funcval pointer.
func writableTramp[T any](ctx int, p1, p2 unsafe.Pointer) {
	w := (*Writable[T])(p1)
	fn := ptrFunc[func(*Ctx, *T)](p2)
	fn(&w.rt.ctxs[ctx], &w.obj)
}

// NewWritable wraps obj with the sequence serializer (the common case: each
// wrapper is its own serialization set).
func NewWritable[T any](rt *Runtime, obj T) *Writable[T] {
	return NewWritableSer(rt, obj, SequenceSerializer[T]())
}

// NewWritableSer wraps obj with an explicit serializer (Object, Internal,
// Null, or any custom function).
func NewWritableSer[T any](rt *Runtime, obj T, ser Serializer[T]) *Writable[T] {
	return &Writable[T]{
		rt: rt, obj: obj, instance: rt.nextInstance(), ser: ser,
		tramp: writableTramp[T],
	}
}

// Instance returns the wrapper's instance number (the sequence serializer's
// identity).
func (w *Writable[T]) Instance() uint64 { return w.instance }

// ensureEpoch lazily resets the per-epoch state machine. EndIsolation is a
// barrier, so when the epoch tag is stale no delegated work can still be
// outstanding.
func (w *Writable[T]) ensureEpoch() {
	if e := w.rt.core.Epoch(); e != w.epoch {
		w.epoch = e
		w.state = stateUnused
		w.hasSet = false
		w.outstanding = false
		w.ownerCtx = 0
	}
}

// Delegate assigns a potentially independent operation on the object to the
// delegate context, in the serialization set computed by the wrapper's
// serializer (paper Table 1). It is an error outside an isolation epoch, on
// a wrapper in the read-only state, or on a wrapper with a Null serializer.
func (w *Writable[T]) Delegate(fn func(c *Ctx, obj *T)) {
	if w.ser == nil {
		raise(ErrAPIMisuse, "Delegate on a Null-serializer wrapper; use DelegateTo")
	}
	w.DelegateTo(w.ser(w.instance, &w.obj), fn)
}

// DelegateTo assigns the operation to an explicitly provided serialization
// set (the paper's external-serializer delegate overload).
func (w *Writable[T]) DelegateTo(set uint64, fn func(c *Ctx, obj *T)) {
	rt := w.rt
	if !rt.core.InIsolation() {
		raise(ErrAPIMisuse, "Delegate outside an isolation epoch")
	}
	w.ensureEpoch()
	if rt.checked {
		if w.state == stateReadOnly {
			raise(ErrPartitionViolation, "Delegate on writable #%d used as read-only this epoch", w.instance)
		}
		if w.hasSet && w.set != set {
			raise(ErrSerializerViolation,
				"writable #%d mapped to set %d, previously set %d, in one epoch", w.instance, set, w.set)
		}
	}
	w.state = statePrivate
	w.set = set
	w.hasSet = true
	w.outstanding = true
	w.ownerCtx = rt.core.DelegateCall(set, w.tramp, unsafe.Pointer(w), funcPtr(fn))
}

// Call performs a dependent operation on the object in the program context
// (paper Table 1: writable call). During an isolation epoch it first
// reclaims ownership, waiting for outstanding delegated operations on the
// object to complete; the object then remains program-owned until the next
// Delegate.
func (w *Writable[T]) Call(fn func(obj *T)) {
	w.reclaim()
	fn(&w.obj)
}

// reclaim synchronizes with the owning delegate if the object has
// outstanding delegated operations, and marks the object privately-writable
// by the program context.
func (w *Writable[T]) reclaim() {
	rt := w.rt
	w.ensureEpoch()
	if rt.core.InIsolation() {
		if rt.checked && w.state == stateReadOnly {
			raise(ErrPartitionViolation, "Call on writable #%d used as read-only this epoch", w.instance)
		}
		w.state = statePrivate
	}
	if w.outstanding {
		rt.core.SyncContext(w.ownerCtx)
		w.outstanding = false
	}
}

// CallRO reads the object in its read-only role (paper: calls to const
// methods while the object is in the read-only state). It is an error in
// checked mode if the object is privately-writable this epoch. The callback
// must not mutate the object.
func (w *Writable[T]) CallRO(fn func(obj *T)) {
	rt := w.rt
	w.ensureEpoch()
	if rt.core.InIsolation() {
		if rt.checked && w.state == statePrivate {
			raise(ErrPartitionViolation, "CallRO on writable #%d used as privately-writable this epoch", w.instance)
		}
		w.state = stateReadOnly
	}
	fn(&w.obj)
}

// RO returns a read-only view of the object for passing (by pointer) to
// delegated operations during an epoch where this wrapper is in the
// read-only domain. It applies the same state-machine transition as CallRO.
func (w *Writable[T]) RO() *T {
	rt := w.rt
	w.ensureEpoch()
	if rt.core.InIsolation() {
		if rt.checked && w.state == statePrivate {
			raise(ErrPartitionViolation, "RO on writable #%d used as privately-writable this epoch", w.instance)
		}
		w.state = stateReadOnly
	}
	return &w.obj
}

// Sync waits for all outstanding delegated operations on this object and
// returns ownership to the program context, without performing a call.
func (w *Writable[T]) Sync() { w.reclaim() }

// Call invokes fn on the wrapped object in the program context and returns
// its result; the free-function form exists because Go methods cannot add
// type parameters (paper: call returning R).
func Call[T, R any](w *Writable[T], fn func(obj *T) R) R {
	w.reclaim()
	return fn(&w.obj)
}

// DoAll delegates fn on every wrapper in objs (paper Table 1: doall), the
// embarrassing-parallelism idiom of Figure 2.
func DoAll[T any](objs []*Writable[T], fn func(c *Ctx, obj *T)) {
	for _, w := range objs {
		w.Delegate(fn)
	}
}
