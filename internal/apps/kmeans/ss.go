package kmeans

import (
	prometheus "repro"
	"repro/internal/workload"
)

// RunSS is the serialization-sets implementation using the reduction
// formulation the paper proposes as the fix (§5.1: "computing partial sums
// of the cluster means during clustering, and using a reduction to
// summarize the results"): each iteration is an isolation epoch in which
// point chunks are delegated and accumulate into a reducible partial, then
// the program context updates centroids from the reduced sums.
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs the reduction formulation with a caller-supplied runtime.
// Each iteration sums into its own reducible, so no partial carries over.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	n := len(in.Points)
	cents := initialCentroids(in)
	assign := make([]int, n)
	ws := chunks(rt, n)
	var sp space
	for it := 0; it < in.Iters; it++ {
		red := prometheus.NewReducible(rt,
			func() partial { return newPartial(in.Clusters, in.Dims) },
			func(dst, src *partial) { dst.merge(src) })
		sp.build(cents, in.Dims) // read-only during the epoch
		rt.BeginIsolation()
		prometheus.DoAll(ws, func(c *prometheus.Ctx, r *workload.Range) {
			view := red.View(c)
			for i := r.Lo; i < r.Hi; i++ {
				cl := sp.nearest(in.Points[i], assign[i])
				assign[i] = cl
				view.add(cl, in.Points[i])
			}
		})
		rt.EndIsolation()
		cents = centroidsFrom(red.Result(), cents)
	}
	return &Output{Centroids: cents, Assign: assign}, rt.Stats()
}

// RunSSNaive is the formulation the paper actually measured and calls
// inferior: assignment runs as a delegated pass, but the accumulation of
// cluster sums happens in a second, sequential pass over all points in the
// program context ("iterates over the data points and cluster points
// separately"). The extra O(N·D) sequential pass per iteration is the
// ablation's measured cost.
func RunSSNaive(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	n := len(in.Points)
	cents := initialCentroids(in)
	assign := make([]int, n)
	ws := chunks(rt, n)
	var sp space
	for it := 0; it < in.Iters; it++ {
		sp.build(cents, in.Dims)
		// Pass 1 (parallel): assignment only.
		rt.BeginIsolation()
		prometheus.DoAll(ws, func(c *prometheus.Ctx, r *workload.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				assign[i] = sp.nearest(in.Points[i], assign[i])
			}
		})
		rt.EndIsolation()
		// Pass 2 (sequential): accumulate cluster sums in program context.
		acc := newPartial(in.Clusters, in.Dims)
		for i, p := range in.Points {
			acc.add(assign[i], p)
		}
		cents = centroidsFrom(&acc, cents)
	}
	return &Output{Centroids: cents, Assign: assign}, rt.Stats()
}

// chunks wraps the points' workload.Chunks ranges in Writables, one set
// each; both formulations reuse them in every iteration's epoch.
func chunks(rt *prometheus.Runtime, n int) []*prometheus.Writable[workload.Range] {
	rs := workload.Chunks(n, rt.NumContexts())
	ws := make([]*prometheus.Writable[workload.Range], len(rs))
	for i, r := range rs {
		ws[i] = prometheus.NewWritable(rt, r)
	}
	return ws
}
