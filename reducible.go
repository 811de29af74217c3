package prometheus

import (
	"unsafe"

	"repro/internal/core"
)

// Reducible wraps data whose updates are associative and commutative
// (paper §2.2, technique 2). Each execution context accumulates into a
// private view, made when that context first uses the reducible; the first
// access from the program context in the following aggregation epoch folds
// the views into view 0 with a parallel tree reduction (N/2 combine
// operations per step, executed on the delegate pool) and drops them.
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
	// not share cache lines. Slot i stays nil until context i uses the
	// reducible; in isolation only context i writes it, and the barrier
	// orders that write before the reduction's reads.
	views []*T
}

// reducibleTramp is the Reducible delegation trampoline: p1 is the wrapper,
// p2 the user callback's funcval pointer; the callback runs against the
// executing context's private view.
func reducibleTramp[T any](ctx int, p1, p2 unsafe.Pointer) {
	r := (*Reducible[T])(p1)
	fn := ptrFunc[func(*T)](p2)
	fn(r.view(ctx))
}

// NewReducible creates a reducible. factory produces an identity view and
// may run on any context, concurrently; combine folds src into dst and may
// destroy src. No view is made until a context uses the reducible.
func NewReducible[T any](rt *Runtime, factory func() T, combine func(dst, src *T)) *Reducible[T] {
	return &Reducible[T]{rt: rt, factory: factory, combine: combine, tramp: reducibleTramp[T],
		views: make([]*T, rt.NumContexts())}
}

// view returns context ctx's view, making it from the factory on first use.
func (r *Reducible[T]) view(ctx int) *T {
	v := r.views[ctx]
	if v == nil {
		x := r.factory()
		v = &x
		r.views[ctx] = v
	}
	return v
}

// View returns the executing context's private view. Delegated closures use
// the *Ctx they were handed; the program context uses rt.ProgramCtx().
// Accessing the view from the program context during an aggregation epoch
// triggers the pending reduction first (paper: "the first call in an
// aggregation epoch causes the reduce method to execute").
func (r *Reducible[T]) View(c *Ctx) *T {
	if c.id == 0 && !r.rt.core.InIsolation() {
		r.maybeReduce()
	}
	return r.view(c.id)
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
// cache state). An update that panics poisons its set like any operation
// (see Runtime.Err), so the reduced result holds exactly the updates that
// ran before the fault.
func (r *Reducible[T]) Delegate(set uint64, fn func(view *T)) {
	if !r.rt.core.InIsolation() {
		raise(ErrAPIMisuse, "Reducible.Delegate outside an isolation epoch")
	}
	r.rt.core.DelegateCall(set, r.tramp, unsafe.Pointer(r), funcPtr(fn))
}

// Result reduces (if needed) and returns the final view. It must be called
// from the program context during an aggregation epoch.
func (r *Reducible[T]) Result() *T {
	if r.rt.core.InIsolation() {
		raise(ErrAPIMisuse, "Reducible.Result during an isolation epoch")
	}
	r.maybeReduce()
	return r.view(0)
}

// maybeReduce folds every view into view 0 and drops the folded views.
func (r *Reducible[T]) maybeReduce() {
	if r.reduced() {
		return
	}
	rt := r.rt
	rt.core.EnterReduction()
	n := len(r.views)
	// Pairwise tree: at each step, combine view[i+stride] into view[i] for
	// every i that is a multiple of 2*stride. Steps are barriers; combines
	// within a step touch disjoint view pairs and run on the delegate pool.
	// A missing source is an identity, so its pair is skipped. A source is
	// dropped before its combine runs, so a combine that panics is not
	// retried by the next access.
	for stride := 1; stride < n; stride *= 2 {
		var tasks []func(int)
		for i := 0; i+stride < n; i += 2 * stride {
			src := r.views[i+stride]
			if src == nil {
				continue
			}
			r.views[i+stride] = nil
			dst := i
			tasks = append(tasks, func(int) { r.combine(r.view(dst), src) })
		}
		if len(tasks) > 0 {
			rt.core.RunParallel(tasks)
		}
	}
	rt.core.ExitReduction()
}

// reduced reports whether no reduction is pending: no view but view 0.
func (r *Reducible[T]) reduced() bool {
	for _, v := range r.views[1:] {
		if v != nil {
			return false
		}
	}
	return true
}
