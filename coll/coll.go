// Package coll provides the shared data structures of the Prometheus
// library (paper §3.1/§3.2): reducible maps, sets, counters, slices and
// scalar accumulators built on the serialization-sets reducible framework.
//
// All containers follow the same discipline: during isolation epochs each
// execution context updates a private view (addressed by the *prometheus.Ctx
// handed to delegated closures); the first program-context access in the
// following aggregation epoch folds the views into the final value with a
// deterministic parallel tree reduction.
package coll

import (
	prometheus "repro"
)

// Map is a reducible map from K to V (the paper's reducible_map). When the
// same key is inserted in multiple views, the merge function combines the
// values during reduction; within one view, a later Insert for a key merges
// into the earlier value immediately, so per-view semantics match the
// reduced semantics.
type Map[K comparable, V any] struct {
	r     *prometheus.Reducible[map[K]V]
	merge func(into V, add V) V
}

// NewMap creates a reducible map; merge combines two values mapped to the
// same key (it must be associative and commutative up to the equivalence the
// program cares about).
func NewMap[K comparable, V any](rt *prometheus.Runtime, merge func(into, add V) V) *Map[K, V] {
	return &Map[K, V]{
		r: prometheus.NewReducible(rt,
			func() map[K]V { return make(map[K]V) },
			func(dst, src *map[K]V) {
				for k, v := range *src {
					if old, ok := (*dst)[k]; ok {
						(*dst)[k] = merge(old, v)
					} else {
						(*dst)[k] = v
					}
				}
			}),
		merge: merge,
	}
}

// Insert merges v into the entry for k in the executing context's view.
func (m *Map[K, V]) Insert(c *prometheus.Ctx, k K, v V) {
	view := m.r.View(c)
	if old, ok := (*view)[k]; ok {
		(*view)[k] = m.merge(old, v)
	} else {
		(*view)[k] = v
	}
}

// Set replaces the entry for k in the executing context's view.
func (m *Map[K, V]) Set(c *prometheus.Ctx, k K, v V) { (*m.r.View(c))[k] = v }

// Get looks up k in the executing context's view. From the program context
// in an aggregation epoch, this is the reduced map.
func (m *Map[K, V]) Get(c *prometheus.Ctx, k K) (V, bool) {
	v, ok := (*m.r.View(c))[k]
	return v, ok
}

// Update applies fn to the entry for k in the executing context's view,
// inserting the result of fn on the zero value when k is absent.
func (m *Map[K, V]) Update(c *prometheus.Ctx, k K, fn func(V) V) {
	view := m.r.View(c)
	(*view)[k] = fn((*view)[k])
}

// Result reduces (if needed) and returns the final map. Program context,
// aggregation epoch only.
func (m *Map[K, V]) Result() map[K]V { return *m.r.Result() }

// Len returns the size of the reduced map.
func (m *Map[K, V]) Len() int { return len(m.Result()) }

// Set is a reducible set of E (the paper's reducible_set).
type Set[E comparable] struct {
	r *prometheus.Reducible[map[E]struct{}]
}

// NewSet creates a reducible set.
func NewSet[E comparable](rt *prometheus.Runtime) *Set[E] {
	return &Set[E]{
		r: prometheus.NewReducible(rt,
			func() map[E]struct{} { return make(map[E]struct{}) },
			func(dst, src *map[E]struct{}) {
				for e := range *src {
					(*dst)[e] = struct{}{}
				}
			}),
	}
}

// Insert adds e to the executing context's view.
func (s *Set[E]) Insert(c *prometheus.Ctx, e E) { (*s.r.View(c))[e] = struct{}{} }

// Contains reports membership in the executing context's view (the reduced
// set when called from the program context in aggregation).
func (s *Set[E]) Contains(c *prometheus.Ctx, e E) bool {
	_, ok := (*s.r.View(c))[e]
	return ok
}

// Result reduces (if needed) and returns the final membership map.
func (s *Set[E]) Result() map[E]struct{} { return *s.r.Result() }

// Len returns the size of the reduced set.
func (s *Set[E]) Len() int { return len(s.Result()) }

// Counter is a reducible multiset: a map from K to int64 counts.
type Counter[K comparable] struct {
	r *prometheus.Reducible[map[K]int64]
}

// NewCounter creates a reducible counter.
func NewCounter[K comparable](rt *prometheus.Runtime) *Counter[K] {
	return &Counter[K]{
		r: prometheus.NewReducible(rt,
			func() map[K]int64 { return make(map[K]int64) },
			func(dst, src *map[K]int64) {
				for k, n := range *src {
					(*dst)[k] += n
				}
			}),
	}
}

// Add increments the count for k by n in the executing context's view.
func (c *Counter[K]) Add(ctx *prometheus.Ctx, k K, n int64) { (*c.r.View(ctx))[k] += n }

// View exposes the executing context's raw count map for bulk updates
// (the paper's point that reducible-map insertions are direct map
// operations, with no synchronization).
func (c *Counter[K]) View(ctx *prometheus.Ctx) map[K]int64 { return *c.r.View(ctx) }

// Result reduces (if needed) and returns the final counts.
func (c *Counter[K]) Result() map[K]int64 { return *c.r.Result() }

// Slice is a reducible append-only slice. Reduction concatenates views in
// context order, so element order is deterministic but reflects the set-to-
// context assignment, not global program order; use it for order-insensitive
// collection.
type Slice[E any] struct {
	r *prometheus.Reducible[[]E]
}

// NewSlice creates a reducible slice.
func NewSlice[E any](rt *prometheus.Runtime) *Slice[E] {
	return &Slice[E]{
		r: prometheus.NewReducible(rt,
			func() []E { return nil },
			func(dst, src *[]E) { *dst = append(*dst, *src...) }),
	}
}

// Append adds elements to the executing context's view.
func (s *Slice[E]) Append(c *prometheus.Ctx, es ...E) {
	view := s.r.View(c)
	*view = append(*view, es...)
}

// View exposes the executing context's raw slice, for callers that append
// through a function of their own.
func (s *Slice[E]) View(c *prometheus.Ctx) *[]E { return s.r.View(c) }

// Result reduces (if needed) and returns the final slice.
func (s *Slice[E]) Result() []E { return *s.r.Result() }

// Sum is a reducible scalar accumulator for any numeric type.
type Sum[N int64 | float64 | int | uint64] struct {
	r *prometheus.Reducible[N]
}

// NewSum creates a reducible sum starting at zero.
func NewSum[N int64 | float64 | int | uint64](rt *prometheus.Runtime) *Sum[N] {
	return &Sum[N]{
		r: prometheus.NewReducible(rt, func() N { return 0 }, func(dst, src *N) { *dst += *src }),
	}
}

// Add accumulates v into the executing context's view.
func (s *Sum[N]) Add(c *prometheus.Ctx, v N) { *s.r.View(c) += v }

// Result reduces (if needed) and returns the total.
func (s *Sum[N]) Result() N { return *s.r.Result() }
