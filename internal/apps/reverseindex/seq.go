package reverseindex

// RunSeq is the sequential reference: walk the tree, extract links,
// accumulate the index.
func RunSeq(in *Input) *Output {
	index := map[string][]string{}
	seen := map[string]fileSet{}
	in.FS.Walk(func(f *File) {
		extractLinks(f.Content, func(url string) {
			set, ok := seen[url]
			if !ok {
				set = fileSet{}
				seen[url] = set
			}
			set[f.Path] = struct{}{}
		})
	})
	for url, set := range seen {
		index[url] = setToSorted(set)
	}
	return &Output{Index: index}
}
