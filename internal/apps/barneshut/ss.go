package barneshut

import prometheus "repro"

// RunSS is the serialization-sets implementation: body chunks are writable
// domains delegated each step while the freshly built octree is a read-only
// domain — the alternating-partition idiom of §2.2 (the tree is written in
// the aggregation gap between isolation epochs, read-only inside them).
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs with a caller-supplied runtime.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	bodies, ptrs := clone(in)
	accs := make([]Vec3, len(ptrs))
	var bd builder
	n := len(ptrs)
	type rng struct{ lo, hi int }
	// +1: the program context executes chunks too, at each EndIsolation.
	nChunks := 8 * (rt.NumDelegates() + 1)
	if nChunks > n && n > 0 {
		nChunks = n
	}
	ws := make([]*prometheus.Writable[rng], 0, nChunks)
	for c := 0; c < nChunks; c++ {
		lo, hi := n*c/nChunks, n*(c+1)/nChunks
		if lo != hi {
			ws = append(ws, prometheus.NewWritable(rt, rng{lo, hi}))
		}
	}
	treeRO := prometheus.NewReadOnly[*Tree](rt, nil)
	for step := 0; step < in.Steps; step++ {
		// Aggregation: rebuild the tree (the read-only domain mutates only
		// between isolation epochs) over the arenas of the last step's,
		// which EndIsolation left with no reader.
		*treeRO.Mut() = bd.build(ptrs)
		rt.BeginIsolation()
		root := *treeRO.Get()
		prometheus.DoAll(ws, func(c *prometheus.Ctx, r *rng) {
			forceRange(root, ptrs, accs, r.lo, r.hi)
			integrateRange(root, ptrs, accs, r.lo, r.hi)
		})
		rt.EndIsolation()
	}
	return &Output{Bodies: bodies}, rt.Stats()
}
