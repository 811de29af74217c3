package reverseindex

import "sync"

// RunCP is the conventional-parallel implementation in the style of the
// Phoenix pthreads baseline, which is two-phase by necessity (§3.2, §5.1):
// "a typical thread-based implementation would first have to locate all the
// files, then parcel them into equally-sized sets to evenly distribute work
// to the threads". Phase 1 performs the full directory recursion
// sequentially; phase 2 splits the file list across workers, each building
// a private index; the private indexes are merged under a final pass.
func RunCP(in *Input, workers int) *Output {
	if workers < 1 {
		workers = 1
	}
	// Phase 1: locate all files (sequential; nothing else may start).
	var files []*File
	in.FS.Walk(func(f *File) { files = append(files, f) })

	// Phase 2: parallel link extraction over static partitions.
	parts := make([]map[string]fileSet, workers)
	var wg sync.WaitGroup
	n := len(files)
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo == hi {
			continue
		}
		parts[w] = map[string]fileSet{}
		wg.Add(1)
		go func(local map[string]fileSet) {
			defer wg.Done()
			for _, f := range files[lo:hi] {
				extractLinks(f.Content, func(url string) {
					set, ok := local[url]
					if !ok {
						set = fileSet{}
						local[url] = set
					}
					set[f.Path] = struct{}{}
				})
			}
		}(parts[w])
	}
	wg.Wait()

	// Merge private indexes.
	merged := map[string]fileSet{}
	for _, local := range parts {
		for url, set := range local {
			if dst, ok := merged[url]; ok {
				mergeFileSets(dst, set)
			} else {
				merged[url] = set
			}
		}
	}
	index := make(map[string][]string, len(merged))
	for url, set := range merged {
		index[url] = setToSorted(set)
	}
	return &Output{Index: index}
}
