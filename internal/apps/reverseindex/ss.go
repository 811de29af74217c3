package reverseindex

import (
	prometheus "repro"
	"repro/coll"
)

// RunSS is the serialization-sets implementation following the paper's
// Figure 3 program structure: the program context recursively walks the
// directory tree and, for each file found, immediately delegates the
// find_links operation on a Writable file object (sequence serializer).
// Link-to-file-set insertions go into a reducible map whose per-link file
// sets merge on reduction (the link_t reduce method). The directory
// recursion thus overlaps with the delegated link extraction — the source
// of the SS win in Figure 4.
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs with a caller-supplied runtime.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	linkMap := coll.NewMap[string, fileSet](rt, mergeFileSets)
	rt.BeginIsolation()
	// find_files: the recursion itself is program-context work.
	in.FS.Walk(func(f *File) {
		// Each file is a fresh writable object; delegating find_links on it
		// exposes per-file independence (Figure 3, point F).
		w := prometheus.NewWritable(rt, f)
		w.Delegate(func(c *prometheus.Ctx, file **File) {
			ff := *file
			extractLinks(ff.Content, func(url string) {
				linkMap.Update(c, url, func(s fileSet) fileSet {
					if s == nil {
						s = fileSet{} // first sighting of url in this view
					}
					s[ff.Path] = struct{}{}
					return s
				})
			})
		})
	})
	rt.EndIsolation()
	// First aggregation-epoch use reduces the link map (Figure 3, point L).
	merged := linkMap.Result()
	index := make(map[string][]string, len(merged))
	for url, set := range merged {
		index[url] = setToSorted(set)
	}
	return &Output{Index: index}, rt.Stats()
}
