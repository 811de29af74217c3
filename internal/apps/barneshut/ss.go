package barneshut

import (
	prometheus "repro"
	"repro/internal/workload"
)

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
	rs := workload.Chunks(n, rt.NumContexts())
	ws := make([]*prometheus.Writable[workload.Range], len(rs))
	for i, r := range rs {
		ws[i] = prometheus.NewWritable(rt, r)
	}
	treeRO := prometheus.NewReadOnly[*Tree](rt, nil)
	for step := 0; step < in.Steps; step++ {
		// Aggregation: rebuild the tree (the read-only domain mutates only
		// between isolation epochs) over the arenas of the last step's,
		// which EndIsolation left with no reader.
		*treeRO.Mut() = bd.build(ptrs)
		rt.BeginIsolation()
		root := *treeRO.Get()
		prometheus.DoAll(ws, func(c *prometheus.Ctx, r *workload.Range) {
			forceRange(root, ptrs, accs, r.Lo, r.Hi)
			integrateRange(root, ptrs, accs, r.Lo, r.Hi)
		})
		rt.EndIsolation()
	}
	return &Output{Bodies: bodies}, rt.Stats()
}
