package barneshut

import "sync"

// RunCP is the conventional-parallel implementation in the style of the
// Lonestar pthreads version: per step, a sequential tree build followed by
// a fork-join parallel force-and-integrate phase over static body ranges.
func RunCP(in *Input, workers int) *Output {
	if workers < 1 {
		workers = 1
	}
	bodies, ptrs := clone(in)
	accs := make([]Vec3, len(ptrs))
	var bd builder
	n := len(ptrs)
	for step := 0; step < in.Steps; step++ {
		root := bd.build(ptrs)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				forceRange(root, ptrs, accs, lo, hi)
				integrateRange(root, ptrs, accs, lo, hi)
			}()
		}
		wg.Wait()
	}
	return &Output{Bodies: bodies}
}
