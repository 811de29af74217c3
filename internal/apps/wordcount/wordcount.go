// Package wordcount reproduces the Phoenix word_count benchmark (Table 2):
// counting word frequencies in a text corpus and reporting the top words.
// In the paper, the Prometheus version beats the pthreads baseline at low
// context counts because its reducible map performs cheaper insertions than
// the baseline's sorted lists, while the baseline wins back ground at high
// counts by parallelizing its final merge (§5.1).
package wordcount

import (
	"sort"

	"repro/internal/workload"
)

// Input is the text corpus.
type Input struct {
	Text []byte
}

// WordCount is one dictionary entry.
type WordCount struct {
	Word  string
	Count int64
}

// TopN is how many top words the benchmark reports (Phoenix defaults to 10).
const TopN = 10

// Output is the full dictionary plus the top-N list.
type Output struct {
	Counts map[string]int64
	Top    []WordCount
}

// Load generates the input for a size class.
func Load(size workload.SizeClass) *Input {
	return &Input{Text: workload.GenerateText(workload.TextSize(size))}
}

// dict is the counting dictionary. Counts are held behind pointers so that
// incrementing an existing word is a pure (allocation-free) map lookup —
// `m[string(b)]++` would convert the byte slice to a fresh string on every
// token, and the resulting allocation rate becomes the scaling limiter for
// every parallel variant.
type dict map[string]*int64

// newDict presizes the dictionary: every chunk of a Zipfian corpus sees
// most of the vocabulary, so rehash growth is a fixed per-worker cost worth
// avoiding.
func newDict() dict { return make(dict, 1<<13) }

func (d dict) add(word []byte) {
	if p, ok := d[string(word)]; ok { // alloc-free lookup
		*p++
		return
	}
	n := int64(1)
	d[string(word)] = &n // allocates once per distinct word
}

// merge folds src into d.
func (d dict) merge(src dict) {
	for w, p := range src {
		if q, ok := d[w]; ok {
			*q += *p
		} else {
			d[w] = p
		}
	}
}

// freeze converts the dictionary to the Output representation.
func (d dict) freeze() map[string]int64 {
	out := make(map[string]int64, len(d))
	for w, p := range d {
		out[w] = *p
	}
	return out
}

// countInto tokenizes data (splitting on spaces, tabs and newlines, the
// generator's separators) and tallies words into d.
func countInto(data []byte, d dict) {
	start := -1
	for i := 0; i <= len(data); i++ {
		sep := i == len(data) || data[i] == ' ' || data[i] == '\n' || data[i] == '\t'
		if sep {
			if start >= 0 {
				d.add(data[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
}

// splitWords moves each end of cut, a tiling of [0, len(data)), just past
// the next whitespace, so that no word is split, and returns the non-empty
// chunks. CP cuts one range per worker and SS workload.Chunks.
func splitWords(data []byte, cut []workload.Range) [][]byte {
	var chunks [][]byte
	start := 0
	for _, r := range cut {
		end := max(r.Hi, start)
		for end < len(data) && data[end] != ' ' && data[end] != '\n' {
			end++
		}
		if end < len(data) {
			end++
		}
		if end > start {
			chunks = append(chunks, data[start:end])
		}
		start = end
	}
	return chunks
}

// top extracts the N most frequent words with deterministic tie-breaking
// (by word).
func top(counts map[string]int64, n int) []WordCount {
	all := make([]WordCount, 0, len(counts))
	for w, c := range counts {
		all = append(all, WordCount{w, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Word < all[j].Word
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}
