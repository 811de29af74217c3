package prometheus_test

// BenchmarkRecursiveOverhead isolates the per-operation cost of recursive
// delegation — the extension that makes divide-and-conquer programs
// (quicksort, FPM, Barnes-Hut) expressible in the model (paper §4/§7). The
// variants measure end-to-end cost (delegation plus drain plus execution;
// the timed region closes with EndIsolation's quiescence barrier), because
// recursive lanes have no external backpressure observer: timing only the
// push side would reward an engine that defers all real work to the
// barrier. A developer's probe, read with benchstat; bench/'s delegate-rec
// workload is the gated number for this path. Run with -benchmem; the
// steady-state paths are required to report 0 allocs/op, which
// alloc_test.go enforces exactly.
//
// The nested variants issue delegations from inside a delegated operation
// in waves sized well below the lane capacity, waiting for marker
// operations between waves: a delegate-context producer never blocks (that
// could deadlock a delegation cycle), so an unthrottled producer on a
// small host would overrun the bounded lanes into the spill path and the
// benchmark would measure allocator throughput instead of the engine. The
// wave markers cost one closure per ~200 operations, amortized to ~0.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	prometheus "repro"
)

// nestedSink keeps the leaf operation from being optimized away; a plain
// add on the executing context's stack would not survive inlining proofs.
var nestedSink atomic.Int64

// nestedLeaf is a package-level func value: passing it to Ctx.Delegate
// involves no per-call closure allocation.
var nestedLeaf = func(*prometheus.Ctx) { nestedSink.Add(1) }

// nestedWaves issues n delegations from inside a delegated operation,
// round-robin over `fan` child sets, throttled in waves so at most
// perSet+1 operations are in flight per lane. The child sets are chosen to
// map to delegates other than the one running the producer: operations
// delegated to the producer's own context only run after the producer
// returns, so waiting on them mid-operation would deadlock (they exercise
// the spill path instead; see the recursive stress tests).
func nestedWaves(c *prometheus.Ctx, n, fan int, sets []uint64) {
	const perSet = 64
	var done atomic.Int64
	for issued := 0; issued < n; {
		markers := int64(0)
		for s := 0; s < fan && issued < n; s++ {
			set := sets[s]
			for k := 0; k < perSet && issued < n; k++ {
				c.Delegate(set, nestedLeaf)
				issued++
			}
			c.Delegate(set, func(*prometheus.Ctx) { done.Add(1) })
			markers++
		}
		for done.Load() < markers {
			runtime.Gosched()
		}
		done.Store(0)
	}
}

// recCell is a wrapper's object in the reclaim rows: its operation counts
// itself and delegates one leaf to the wrapper's own child set, so each
// child set has one producer context however the wrappers are placed.
type recCell struct {
	n        int
	childSet uint64
}

func recRoot(c *prometheus.Ctx, x *recCell) {
	x.n++
	c.Delegate(x.childSet, nestedLeaf)
}

func recRead(*recCell) {}

// benchRecursiveReclaim runs delegate-rec's cycle on the given number of
// delegates: a burst of 8 root operations over 4 wrappers, each delegating
// one leaf, then a Call that reclaims one wrapper. Under Recursive the
// reclaim is the quiescence barrier, so one op is one cycle with every
// marker round its reclaim pays.
func benchRecursiveReclaim(b *testing.B, delegates int) {
	b.ReportAllocs()
	rt := prometheus.Init(prometheus.WithDelegates(delegates), prometheus.Recursive())
	defer rt.Terminate()
	ws := make([]*prometheus.Writable[recCell], 4)
	for i := range ws {
		ws[i] = prometheus.NewWritable(rt, recCell{childSet: uint64(1000 + i)})
	}
	rt.BeginIsolation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			ws[k%4].Delegate(recRoot)
		}
		ws[i%4].Call(recRead)
	}
	b.StopTimer()
	rt.EndIsolation()
}

func BenchmarkRecursiveOverhead(b *testing.B) {
	// Root: the program context delegating into a Recursive runtime, one
	// serialization set — the entry every recursive program pays first.
	b.Run("root", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4), prometheus.Recursive())
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		rt.EndIsolation()
		b.StopTimer()
	})
	// Root spread over four wrappers, so consecutive delegations target
	// different delegates' lanes.
	b.Run("root-spread-4", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4), prometheus.Recursive())
		defer rt.Terminate()
		ws := make([]*prometheus.Writable[int], 4)
		for i := range ws {
			ws[i] = prometheus.NewWritable(rt, 0)
		}
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws[i%4].Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		rt.EndIsolation()
		b.StopTimer()
	})
	// Nested: delegate-context producers, the path Recursive exists to
	// permit. One root operation issues b.N delegations over three child
	// sets mapped to the other three delegates (StaticMod places set s on
	// delegate s%4+1: the root wrapper's set 0 owns delegate 1; sets
	// 1001/1002/1003 map to delegates 2/3/4).
	b.Run("nested", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4), prometheus.Recursive())
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		n := b.N
		rt.BeginIsolation()
		b.ResetTimer()
		w.Delegate(func(c *prometheus.Ctx, p *int) {
			nestedWaves(c, n, 3, []uint64{1001, 1002, 1003})
		})
		rt.EndIsolation()
		b.StopTimer()
	})
	// Reclaim: the cycle bench/'s delegate-rec workload times, at one
	// delegate (its shape) and at four.
	for _, d := range []int{1, 4} {
		b.Run(fmt.Sprintf("reclaim-d%d", d), func(b *testing.B) { benchRecursiveReclaim(b, d) })
	}
	// Nested, single child set: every delegation lands in one lane, the
	// deepest per-lane streaming case.
	b.Run("nested-1set", func(b *testing.B) {
		b.ReportAllocs()
		rt := prometheus.Init(prometheus.WithDelegates(4), prometheus.Recursive())
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		n := b.N
		rt.BeginIsolation()
		b.ResetTimer()
		w.Delegate(func(c *prometheus.Ctx, p *int) {
			nestedWaves(c, n, 1, []uint64{1001})
		})
		rt.EndIsolation()
		b.StopTimer()
	})
}
