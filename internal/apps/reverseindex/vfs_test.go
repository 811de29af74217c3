package reverseindex

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestWalkVisitsAllFilesOnce(t *testing.T) {
	tree := workload.GenerateHTMLTree(workload.HTMLSize(workload.Small))
	fs := FromHTMLTree(tree)
	if fs.NumFiles != len(tree.Docs) {
		t.Fatalf("NumFiles = %d, want %d", fs.NumFiles, len(tree.Docs))
	}
	seen := map[string]int{}
	fs.Walk(func(f *File) { seen[f.Path]++ })
	if len(seen) != len(tree.Docs) {
		t.Fatalf("walk saw %d files, want %d", len(seen), len(tree.Docs))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("file %s visited %d times", p, n)
		}
	}
}

func TestWalkOrderDeterministic(t *testing.T) {
	tree := workload.GenerateHTMLTree(workload.HTMLSize(workload.Small))
	order := func() []string {
		fs := FromHTMLTree(tree)
		var paths []string
		fs.Walk(func(f *File) { paths = append(paths, f.Path) })
		return paths
	}
	a, b := order(), order()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk order differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
	// Files within one directory must be sorted.
	byDir := map[string][]string{}
	for _, p := range a {
		dir := p[:strings.LastIndex(p, "/")]
		byDir[dir] = append(byDir[dir], p)
	}
	for dir, files := range byDir {
		if !sort.StringsAreSorted(files) {
			t.Fatalf("files in %s not sorted: %v", dir, files)
		}
	}
}

func TestLookup(t *testing.T) {
	tree := workload.GenerateHTMLTree(workload.HTMLSize(workload.Small))
	fs := FromHTMLTree(tree)
	if fs.Lookup("/") != fs.Root {
		t.Fatal("Lookup(/) should return root")
	}
	if fs.Lookup("/definitely/not/there") != nil {
		t.Fatal("Lookup of missing path should return nil")
	}
	if len(fs.Root.Dirs) > 0 {
		sub := fs.Root.Dirs[0]
		if fs.Lookup(sub.Path) != sub {
			t.Fatalf("Lookup(%s) failed", sub.Path)
		}
	}
}

func TestStats(t *testing.T) {
	tree := workload.GenerateHTMLTree(workload.HTMLSize(workload.Small))
	fs := FromHTMLTree(tree)
	s := fs.Stats()
	if !strings.Contains(s, "files") || !strings.Contains(s, "dirs") {
		t.Fatalf("Stats = %q", s)
	}
}
