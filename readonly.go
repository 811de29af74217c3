package prometheus

import (
	"unsafe"

	"repro/internal/core"
)

// Hasher lets checked mode detect writes through read-only wrappers: if the
// wrapped type implements Hasher, ReadOnly.Call fingerprints the object
// before and after the callback and panics on change.
type Hasher interface {
	Hash() uint64
}

// ReadOnly wraps an object in the read-only domain (paper's read_only<T>):
// during isolation epochs it may be freely read by any operation, in any
// context, and must not be written. During aggregation epochs any use is
// permitted through Mut.
type ReadOnly[T any] struct {
	rt       *Runtime
	obj      T
	instance uint64
	// tramp is the wrapper type's static delegation trampoline, bound once
	// at construction so Delegate builds no closure per call.
	tramp core.Trampoline
}

// readOnlyTramp is the ReadOnly delegation trampoline: p1 is the wrapper,
// p2 the user callback's funcval pointer.
func readOnlyTramp[T any](ctx int, p1, p2 unsafe.Pointer) {
	r := (*ReadOnly[T])(p1)
	fn := ptrFunc[func(*Ctx, *T)](p2)
	fn(&r.rt.ctxs[ctx], &r.obj)
}

// NewReadOnly wraps obj as read-only shared data.
func NewReadOnly[T any](rt *Runtime, obj T) *ReadOnly[T] {
	return &ReadOnly[T]{rt: rt, obj: obj, instance: rt.nextInstance(), tramp: readOnlyTramp[T]}
}

// Delegate assigns a read-only operation on the shared object to the given
// serialization set — the read-side counterpart of Writable.DelegateTo, for
// scans over shared data that feed reducibles from delegate contexts. The
// callback must not mutate the object; checked mode's Hasher fingerprinting
// does not extend to delegated reads (the object is concurrently visible to
// every context, so there is no quiescent point to fingerprint at).
func (r *ReadOnly[T]) Delegate(set uint64, fn func(c *Ctx, obj *T)) {
	if !r.rt.core.InIsolation() {
		raise(ErrAPIMisuse, "Delegate outside an isolation epoch")
	}
	r.rt.core.DelegateCall(set, r.tramp, unsafe.Pointer(r), funcPtr(fn))
}

// Get returns the shared read view. The pointer may be captured by delegated
// closures; they must not write through it.
func (r *ReadOnly[T]) Get() *T { return &r.obj }

// Call invokes fn with the read view. In checked mode, if T implements
// Hasher, a fingerprint mismatch after fn panics with a partition violation
// (the Go stand-in for C++ const enforcement).
func (r *ReadOnly[T]) Call(fn func(obj *T)) {
	if r.rt.checked && r.rt.core.InIsolation() {
		if h, ok := any(&r.obj).(Hasher); ok {
			before := h.Hash()
			fn(&r.obj)
			if h.Hash() != before {
				raise(ErrPartitionViolation, "write through read-only wrapper #%d detected", r.instance)
			}
			return
		}
	}
	fn(&r.obj)
}

// Mut returns a mutable pointer to the object. It is an error during an
// isolation epoch: read-only data may only be modified in aggregation
// epochs (e.g. between iterations that alternate the data partition,
// paper §2.2 technique 1).
func (r *ReadOnly[T]) Mut() *T {
	if r.rt.core.InIsolation() {
		raise(ErrPartitionViolation, "Mut on read-only wrapper #%d during isolation epoch", r.instance)
	}
	return &r.obj
}

// CallR invokes fn with the read view and returns its result.
func CallR[T, R any](r *ReadOnly[T], fn func(obj *T) R) R {
	return fn(r.Get())
}
