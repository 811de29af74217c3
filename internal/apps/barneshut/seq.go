package barneshut

// RunSeq is the sequential reference implementation.
func RunSeq(in *Input) *Output {
	bodies, ptrs := clone(in)
	accs := make([]Vec3, len(ptrs))
	var bd builder
	for step := 0; step < in.Steps; step++ {
		root := bd.build(ptrs)
		forceRange(root, ptrs, accs, 0, len(ptrs))
		integrateRange(root, ptrs, accs, 0, len(ptrs))
	}
	return &Output{Bodies: bodies}
}
