// Package reverseindex reproduces the Phoenix reverse_index benchmark
// (Table 2, and the paper's worked example in Figure 3): recursively read a
// directory tree of HTML files, extract the links, and build an index from
// each link to the files containing it.
//
// This is the benchmark where serialization sets beat the conventional
// parallel version in the paper (§5.1): the SS program overlaps the
// sequential directory recursion with the delegated link extraction, while
// the pthreads baseline must finish locating all files before it can parcel
// them out to threads.
package reverseindex

import (
	"bytes"
	"sort"

	"repro/internal/workload"
)

// Input is the in-memory directory tree.
type Input struct {
	FS *FS
}

// Output maps each link URL to the sorted list of file paths containing it.
type Output struct {
	Index map[string][]string
}

// Load generates the input for a size class.
func Load(size workload.SizeClass) *Input {
	return &Input{FS: FromHTMLTree(workload.GenerateHTMLTree(workload.HTMLSize(size)))}
}

// extractLinks scans HTML content for anchor targets and calls emit for
// each (the paper's find_links). Like the Phoenix original it is a
// character-level parser: it recognizes <a> and <A> tags with any attribute
// order, optional whitespace around '=', and single-, double- or un-quoted
// href values — so the per-file work is a real parse, not a substring
// search. Between tags it jumps from one '<' to the next.
func extractLinks(content []byte, emit func(url string)) {
	i := 0
	n := len(content)
	for i < n {
		j := bytes.IndexByte(content[i:], '<')
		if j < 0 {
			return
		}
		i += j + 1
		// Tag name must be "a" or "A" followed by a separator.
		if i >= n || (content[i] != 'a' && content[i] != 'A') {
			continue
		}
		i++
		if i >= n || !isSpace(content[i]) {
			continue
		}
		// Scan attributes until '>' looking for href.
		for i < n && content[i] != '>' {
			for i < n && isSpace(content[i]) {
				i++
			}
			attrStart := i
			for i < n && content[i] != '=' && content[i] != '>' && !isSpace(content[i]) {
				i++
			}
			attr := content[attrStart:i]
			for i < n && isSpace(content[i]) {
				i++
			}
			if i >= n || content[i] != '=' {
				continue
			}
			i++
			for i < n && isSpace(content[i]) {
				i++
			}
			var val []byte
			if i < n && (content[i] == '"' || content[i] == '\'') {
				q := content[i]
				i++
				valStart := i
				for i < n && content[i] != q {
					i++
				}
				if i >= n {
					return // unterminated quote: truncated document
				}
				val = content[valStart:i]
				i++
			} else {
				valStart := i
				for i < n && !isSpace(content[i]) && content[i] != '>' {
					i++
				}
				val = content[valStart:i]
			}
			if isHref(attr) && len(val) > 0 {
				emit(string(val))
			}
		}
	}
}

// ExtractLinks is the exported form of the link scanner, reused by the
// examples.
func ExtractLinks(content []byte, emit func(url string)) { extractLinks(content, emit) }

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// isHref matches "href" case-insensitively without allocating.
func isHref(attr []byte) bool {
	return len(attr) == 4 &&
		(attr[0]|0x20) == 'h' && (attr[1]|0x20) == 'r' &&
		(attr[2]|0x20) == 'e' && (attr[3]|0x20) == 'f'
}

// fileSet is the per-link set of files (the paper's link_t file_set,
// a reducible_set).
type fileSet map[string]struct{}

// mergeFileSets folds src into dst (the paper's link_t.reduce).
func mergeFileSets(dst, src fileSet) fileSet {
	for f := range src {
		dst[f] = struct{}{}
	}
	return dst
}

// setToSorted converts a file set to a sorted list.
func setToSorted(s fileSet) []string {
	files := make([]string, 0, len(s))
	for f := range s {
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}
