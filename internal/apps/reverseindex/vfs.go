package reverseindex

// The in-memory file system the program walks. The paper's benchmark reads
// a 100 MB–1 GB directory tree of HTML files from disk; a hermetic in-memory
// tree exercises the same program structure (recursive directory traversal
// interleaved with per-file work) without I/O noise or external data, and
// makes the benchmark deterministic.

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// File is a leaf node.
type File struct {
	Path    string
	Content []byte
}

// Dir is an internal node. Children are kept sorted so traversal order is
// deterministic.
type Dir struct {
	Path  string
	Dirs  []*Dir
	Files []*File
}

// FS is a rooted in-memory tree.
type FS struct {
	Root     *Dir
	NumFiles int
}

// FromHTMLTree builds an FS from a generated HTML corpus.
func FromHTMLTree(t *workload.HTMLTree) *FS {
	dirs := map[string]*Dir{}
	var build func(path string) *Dir
	build = func(path string) *Dir {
		d := &Dir{Path: path}
		dirs[path] = d
		children := append([]string(nil), t.DirChildren[path]...)
		sort.Strings(children)
		for _, c := range children {
			d.Dirs = append(d.Dirs, build(c))
		}
		files := append([]*workload.HTMLDoc(nil), t.DirFiles[path]...)
		sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
		for _, f := range files {
			d.Files = append(d.Files, &File{Path: f.Path, Content: f.Content})
		}
		return d
	}
	fs := &FS{Root: build("/")}
	fs.NumFiles = len(t.Docs)
	return fs
}

// statCost emulates the metadata work (readdir + stat + open) a real file
// system charges per directory entry. The paper's reverse_index walks a
// disk-resident tree, and it is precisely this walk cost that the
// serialization-sets version overlaps with delegated link extraction
// (§3.2); an in-memory tree with a free walk would erase the effect being
// reproduced. The cost is a deterministic hash over the path, sized to a
// few microseconds — the page-cache-hit cost of stat+open on Linux.
func statCost(path string) uint64 {
	const rounds = 48
	h := uint64(14695981039346656037)
	for r := 0; r < rounds; r++ {
		for i := 0; i < len(path); i++ {
			h ^= uint64(path[i])
			h *= 1099511628211
		}
	}
	return h
}

// statSink defeats dead-code elimination of statCost.
var statSink uint64

// Walk visits every file in deterministic depth-first order, charging the
// simulated metadata cost per directory and file entry.
func (fs *FS) Walk(visit func(*File)) {
	var rec func(d *Dir)
	rec = func(d *Dir) {
		statSink += statCost(d.Path)
		for _, f := range d.Files {
			statSink += statCost(f.Path)
			visit(f)
		}
		for _, sub := range d.Dirs {
			rec(sub)
		}
	}
	rec(fs.Root)
}

// Lookup finds a directory by path; nil if absent.
func (fs *FS) Lookup(path string) *Dir {
	var found *Dir
	var rec func(d *Dir)
	rec = func(d *Dir) {
		if d.Path == path {
			found = d
			return
		}
		for _, sub := range d.Dirs {
			if found == nil {
				rec(sub)
			}
		}
	}
	rec(fs.Root)
	return found
}

// Stats returns a short human-readable summary.
func (fs *FS) Stats() string {
	files, bytes, dirs := 0, 0, 0
	var rec func(d *Dir)
	rec = func(d *Dir) {
		dirs++
		for _, f := range d.Files {
			files++
			bytes += len(f.Content)
		}
		for _, sub := range d.Dirs {
			rec(sub)
		}
	}
	rec(fs.Root)
	return fmt.Sprintf("%d dirs, %d files, %d bytes", dirs, files, bytes)
}
