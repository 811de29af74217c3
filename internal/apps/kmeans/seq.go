package kmeans

// RunSeq is the sequential reference: assignment and accumulation fused in
// one pass per iteration, like the original benchmark.
func RunSeq(in *Input) *Output {
	cents := initialCentroids(in)
	assign := make([]int, len(in.Points))
	var sp space
	for it := 0; it < in.Iters; it++ {
		sp.build(cents, in.Dims)
		acc := newPartial(in.Clusters, in.Dims)
		for i, p := range in.Points {
			c := sp.nearest(p, assign[i])
			assign[i] = c
			acc.add(c, p)
		}
		cents = centroidsFrom(&acc, cents)
	}
	return &Output{Centroids: cents, Assign: assign}
}
