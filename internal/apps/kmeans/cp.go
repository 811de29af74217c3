package kmeans

import "sync"

// RunCP is the conventional-parallel implementation in the OpenMP style of
// the NU-MineBench original: each iteration runs a parallel-for over static
// point ranges, with per-thread partial sums merged by the main thread, then
// a sequential centroid update.
func RunCP(in *Input, workers int) *Output {
	if workers < 1 {
		workers = 1
	}
	n := len(in.Points)
	cents := initialCentroids(in)
	assign := make([]int, n)
	parts := make([]partial, workers)
	var sp space
	for it := 0; it < in.Iters; it++ {
		sp.build(cents, in.Dims)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			if lo == hi {
				continue
			}
			parts[w] = newPartial(in.Clusters, in.Dims)
			wg.Add(1)
			go func(p *partial) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					c := sp.nearest(in.Points[i], assign[i])
					assign[i] = c
					p.add(c, in.Points[i])
				}
			}(&parts[w])
		}
		wg.Wait()
		acc := newPartial(in.Clusters, in.Dims)
		for w := range parts {
			if parts[w].counts != nil {
				acc.merge(&parts[w])
			}
		}
		cents = centroidsFrom(&acc, cents)
	}
	return &Output{Centroids: cents, Assign: assign}
}
