package freqmine

import (
	"sync"
	"sync/atomic"

	"repro/internal/fpm"
)

// RunCP is the conventional-parallel implementation in the OpenMP style of
// the PARSEC original: after the sequential FP-tree build, worker threads
// pull frequent items from a shared dynamic queue (an atomic cursor, the
// equivalent of omp dynamic scheduling — task sizes are highly skewed) and
// mine their conditional trees; per-worker result lists are concatenated.
func RunCP(in *Input, workers int) *Output {
	if workers < 1 {
		workers = 1
	}
	tree := fpm.Build(in.Txns, in.MinSup)
	items := tree.FrequentItems()
	results := make([]fpm.Sets, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(items) {
					return
				}
				tree.MineItem(&results[w], items[i])
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		results[0].Join(&results[w])
	}
	return &Output{Sets: results[0].Slice()}
}
