// The paper's Figure 3 program: reverse_index builds an index from link
// URLs to the HTML files containing them, overlapping the sequential
// directory walk with delegated per-file link extraction.
//
// The program structure follows the paper literally: find_files recurses
// in the program context; each file's find_links is delegated on a
// writable file object (sequence serializer); the link map is a reducible
// map whose per-link file sets merge during the reduction, triggered by
// the first use after end_isolation.
//
//	go run ./examples/reverse_index
package main

import (
	"fmt"
	"sort"

	prometheus "repro"
	"repro/coll"
	"repro/internal/apps/reverseindex"
	"repro/internal/workload"
)

func main() {
	rt := prometheus.Init()
	defer rt.Terminate()

	// A small synthetic HTML tree stands in for the paper's on-disk corpus.
	cfg := workload.HTMLSize(workload.Small)
	cfg.Files, cfg.Dirs, cfg.URLPool = 200, 15, 60
	fs := reverseindex.FromHTMLTree(workload.GenerateHTMLTree(cfg))
	fmt.Println("corpus:", fs.Stats())

	type fileSet = map[string]struct{}
	linkMap := coll.NewMap[string, fileSet](rt, func(into, add fileSet) fileSet {
		for f := range add {
			into[f] = struct{}{}
		}
		return into
	})

	rt.BeginIsolation()
	fs.Walk(func(f *reverseindex.File) { // find_files: program-context recursion
		w := prometheus.NewWritable(rt, f)
		w.Delegate(func(c *prometheus.Ctx, file **reverseindex.File) { // find_links
			path := (*file).Path
			reverseindex.ExtractLinks((*file).Content, func(url string) {
				linkMap.Update(c, url, func(s fileSet) fileSet {
					if s == nil {
						s = fileSet{}
					}
					s[path] = struct{}{}
					return s
				})
			})
		})
	})
	rt.EndIsolation()

	// First aggregation-epoch use reduces the link map (Figure 3, L/M).
	index := linkMap.Result()
	urls := make([]string, 0, len(index))
	for url := range index {
		urls = append(urls, url)
	}
	sort.Slice(urls, func(i, j int) bool { return len(index[urls[i]]) > len(index[urls[j]]) })
	fmt.Printf("indexed %d distinct links; top 5 by file count:\n", len(urls))
	for _, url := range urls[:5] {
		fmt.Printf("  %-45s in %d files\n", url, len(index[url]))
	}
}
