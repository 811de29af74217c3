package prometheus

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
)

// Reducible wraps data whose updates are associative and commutative
// (paper §2.2, technique 2). Each execution context accumulates into a
// private view during isolation epochs; the first access from the program
// context in the following aggregation epoch folds the views into the final
// value with a parallel tree reduction (N/2 combine operations per step,
// executed on the delegate pool).
//
// Reduction combines views in fixed index order, so the reduced value is
// deterministic given the per-view contents.
type Reducible[T any] struct {
	rt      *Runtime
	factory func() T
	combine func(dst, src *T)
	// tramp is the wrapper type's static delegation trampoline, bound once
	// at construction so Delegate builds no closure per call.
	tramp core.Trampoline
	// views are separately heap-allocated so per-context accumulators do
	// not share cache lines.
	views []*T
	dirty atomic.Bool
}

// reducibleTramp is the Reducible delegation trampoline: p1 is the wrapper,
// p2 the user callback's funcval pointer; the callback runs against the
// executing context's private view.
func reducibleTramp[T any](ctx int, p1, p2 unsafe.Pointer) {
	r := (*Reducible[T])(p1)
	fn := ptrFunc[func(*T)](p2)
	fn(r.views[ctx])
}

// NewReducible creates a reducible. factory produces an identity view;
// combine folds src into dst and may destroy src.
func NewReducible[T any](rt *Runtime, factory func() T, combine func(dst, src *T)) *Reducible[T] {
	r := &Reducible[T]{rt: rt, factory: factory, combine: combine, tramp: reducibleTramp[T]}
	r.views = make([]*T, rt.NumContexts())
	for i := range r.views {
		v := factory()
		r.views[i] = &v
	}
	return r
}

// View returns the executing context's private view. Delegated closures use
// the *Ctx they were handed; the program context uses rt.ProgramCtx().
// Accessing the view from the program context during an aggregation epoch
// triggers the pending reduction first (paper: "the first call in an
// aggregation epoch causes the reduce method to execute").
func (r *Reducible[T]) View(c *Ctx) *T {
	if c.id == 0 && !r.rt.core.InIsolation() {
		r.maybeReduce()
	} else {
		// Any view access during isolation may mutate; mark the reduction
		// pending. The flag write is ordered before the program context's
		// read by the EndIsolation barrier.
		r.dirty.Store(true)
	}
	return r.views[c.id]
}

// Update applies fn to the executing context's view.
func (r *Reducible[T]) Update(c *Ctx, fn func(view *T)) {
	fn(r.View(c))
}

// Delegate assigns an update to the given serialization set; the callback
// runs against the owning context's private view. Because reducible updates
// are associative and commutative, any set is sound — pick one that spreads
// updates across the delegate pool (or ride along with the set of the
// writable the update is derived from, so it shares that set's context and
// cache state). Marks the reduction pending. An update that panics poisons
// its set like any operation (see Runtime.Err), so the reduced result holds
// exactly the updates that ran before the fault.
func (r *Reducible[T]) Delegate(set uint64, fn func(view *T)) {
	if !r.rt.core.InIsolation() {
		raise(ErrAPIMisuse, "Reducible.Delegate outside an isolation epoch")
	}
	r.dirty.Store(true)
	r.rt.core.DelegateCall(set, r.tramp, unsafe.Pointer(r), funcPtr(fn))
}

// Result reduces (if needed) and returns the final view. It must be called
// from the program context during an aggregation epoch.
func (r *Reducible[T]) Result() *T {
	if r.rt.core.InIsolation() {
		raise(ErrAPIMisuse, "Reducible.Result during an isolation epoch")
	}
	r.maybeReduce()
	return r.views[0]
}

// maybeReduce folds all views into views[0] if any updates are pending.
// Views other than 0 are re-initialized from the factory.
func (r *Reducible[T]) maybeReduce() {
	if !r.dirty.Swap(false) {
		return
	}
	rt := r.rt
	rt.core.EnterReduction()
	n := len(r.views)
	// Pairwise tree: at each step, combine view[i+stride] into view[i] for
	// every i that is a multiple of 2*stride. Steps are barriers; combines
	// within a step touch disjoint view pairs and run on the delegate pool.
	for stride := 1; stride < n; stride *= 2 {
		var tasks []func(int)
		for i := 0; i+stride < n; i += 2 * stride {
			dst, src := r.views[i], r.views[i+stride]
			tasks = append(tasks, func(int) { r.combine(dst, src) })
		}
		rt.core.RunParallel(tasks)
	}
	for i := 1; i < n; i++ {
		v := r.factory()
		r.views[i] = &v
	}
	rt.core.ExitReduction()
}

// reduced reports whether there is no pending reduction.
func (r *Reducible[T]) reduced() bool { return !r.dirty.Load() }

// Clear re-initializes every view from the factory, discarding accumulated
// state. Useful for iterative algorithms that reuse one reducible across
// epochs (allocating a fresh reducible per iteration wastes the views).
// Program context, aggregation epoch only.
func (r *Reducible[T]) Clear() {
	if r.rt.core.InIsolation() {
		raise(ErrAPIMisuse, "Reducible.Clear during an isolation epoch")
	}
	for i := range r.views {
		v := r.factory()
		r.views[i] = &v
	}
	r.dirty.Store(false)
}
