// Package coll provides the shared data structures of the Prometheus
// library (paper §3.1/§3.2): reducible maps and scalar accumulators built
// on the serialization-sets reducible framework.
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
	m := &Map[K, V]{merge: merge}
	m.r = prometheus.NewReducible(rt,
		func() map[K]V { return make(map[K]V) },
		func(dst, src *map[K]V) {
			for k, v := range *src {
				m.insert(*dst, k, v)
			}
		})
	return m
}

// insert merges v into the entry for k in view, or sets it if k is absent.
func (m *Map[K, V]) insert(view map[K]V, k K, v V) {
	if old, ok := view[k]; ok {
		v = m.merge(old, v)
	}
	view[k] = v
}

// Insert merges v into the entry for k in the executing context's view.
func (m *Map[K, V]) Insert(c *prometheus.Ctx, k K, v V) { m.insert(*m.r.View(c), k, v) }

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
