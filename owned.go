package prometheus

import (
	"sync/atomic"

	"repro/internal/core"
)

// Owned is the library's smart pointer (paper §3.1: "a set of smart
// pointer types that can track ownership of pointed-to objects, and detect
// errors when they are accessed by more than one owner in an isolation
// epoch"). Wrapper classes guarantee isolation for state stored inside an
// object, but objects holding pointers to outside state can still
// interfere; routing such pointers through Owned extends the dynamic
// checks to the pointed-to data.
//
// The owner is a serialization set or a context. The first access in an
// isolation epoch claims ownership for that epoch; a later access is
// accepted from the same set — its operations are serialized wherever they
// run, and the runtime moves whole sets between contexts (WithStealing, and
// every barrier) — or from the same context, and any other panics with
// ErrPartitionViolation. Outside isolation epochs access is unrestricted.
// The claim check is lock-free (a single CAS) so it is cheap enough to
// leave enabled in delegated code.
type Owned[T any] struct {
	rt  *Runtime
	obj T
	// claim packs the claiming access: epoch<<32 | a 16-bit hash of the
	// executing set<<16 | ctx+1; 0 = never claimed. Every context id below
	// 65,535 packs (a pool that size would pre-allocate 16 GB of program
	// lanes); set hash 0 means no set's operation was executing, so only
	// the context can match it.
	claim atomic.Uint64
}

// NewOwned wraps obj in an ownership-tracked pointer.
func NewOwned[T any](rt *Runtime, obj T) *Owned[T] {
	return &Owned[T]{rt: rt, obj: obj}
}

// Use returns the pointed-to object, recording (and checking) ownership
// for the current isolation epoch. Pass the *Ctx of the executing
// delegated operation, or Runtime.ProgramCtx() from the program context.
func (o *Owned[T]) Use(c *Ctx) *T {
	rt := o.rt
	// Epoch state only changes in the program context while delegates are
	// quiescent (EndIsolation is a barrier), so this read is stable from
	// any executing operation.
	if !rt.core.InIsolation() {
		return &o.obj
	}
	epoch := rt.core.Epoch() << 32
	tag := epoch | uint64(c.id) + 1
	if set := rt.core.ExecutingSet(c.id); set != core.NoSet {
		tag |= (Mix64(set)>>48 | 1) << claimCtxBits
	}
	for {
		cur := o.claim.Load()
		if cur>>32 != epoch>>32 {
			// Unclaimed this epoch: try to claim.
			if o.claim.CompareAndSwap(cur, tag) {
				return &o.obj
			}
			continue
		}
		sameCtx := (cur^tag)&claimCtxMask == 0
		sameSet := cur&claimSetMask != 0 && (cur^tag)&claimSetMask == 0
		if !sameCtx && !sameSet {
			raise(ErrPartitionViolation,
				"owned pointer accessed by context %d after being owned by context %d this epoch (a different serialization set)",
				c.id, int(cur&claimCtxMask)-1)
		}
		return &o.obj
	}
}

// Owner returns the context id that claimed the object this epoch, or -1.
func (o *Owned[T]) Owner() int {
	cur := o.claim.Load()
	if cur == 0 || cur>>32 != o.rt.core.Epoch()&0xffffffff || !o.rt.core.InIsolation() {
		return -1
	}
	return int(cur&claimCtxMask) - 1
}

// The claim word's two low fields: ctx+1 below claimCtxBits, the set hash above.
const (
	claimCtxBits = 16
	claimCtxMask = 1<<claimCtxBits - 1
	claimSetMask = claimCtxMask << claimCtxBits
)
