package wordcount

import (
	"sort"
	"sync"

	"repro/internal/workload"
)

// listDict is the Phoenix-baseline dictionary: a sorted array the original
// maintains "in a set of lists". Lookups are binary searches and new words
// cost an ordered insert — slower insertion than the reducible hash map
// the SS version uses (which is why the paper's word_count SS beats the
// baseline at low context counts) — but sorted dictionaries merge linearly
// and the merge tree parallelizes across all processors (which is how the
// baseline catches up at high context counts, §5.1).
type listDict struct {
	words  []string
	counts []int64
}

// cmpWordBytes compares a stored word with a token without allocating.
func cmpWordBytes(a string, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func (d *listDict) add(word []byte) {
	i := sort.Search(len(d.words), func(i int) bool { return cmpWordBytes(d.words[i], word) >= 0 })
	if i < len(d.words) && cmpWordBytes(d.words[i], word) == 0 {
		d.counts[i]++
		return
	}
	d.words = append(d.words, "")
	copy(d.words[i+1:], d.words[i:])
	d.words[i] = string(word)
	d.counts = append(d.counts, 0)
	copy(d.counts[i+1:], d.counts[i:])
	d.counts[i] = 1
}

// countIntoList tokenizes data into a listDict (same tokenizer as countInto).
func countIntoList(data []byte, d *listDict) {
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

// mergeList merges two sorted dictionaries in linear time.
func mergeList(a, b *listDict) *listDict {
	out := &listDict{
		words:  make([]string, 0, len(a.words)+len(b.words)),
		counts: make([]int64, 0, len(a.counts)+len(b.counts)),
	}
	i, j := 0, 0
	for i < len(a.words) && j < len(b.words) {
		switch {
		case a.words[i] < b.words[j]:
			out.words = append(out.words, a.words[i])
			out.counts = append(out.counts, a.counts[i])
			i++
		case a.words[i] > b.words[j]:
			out.words = append(out.words, b.words[j])
			out.counts = append(out.counts, b.counts[j])
			j++
		default:
			out.words = append(out.words, a.words[i])
			out.counts = append(out.counts, a.counts[i]+b.counts[j])
			i++
			j++
		}
	}
	out.words = append(out.words, a.words[i:]...)
	out.counts = append(out.counts, a.counts[i:]...)
	out.words = append(out.words, b.words[j:]...)
	out.counts = append(out.counts, b.counts[j:]...)
	return out
}

func (d *listDict) freeze() map[string]int64 {
	out := make(map[string]int64, len(d.words))
	for i, w := range d.words {
		out[w] = d.counts[i]
	}
	return out
}

// RunCP is the conventional-parallel implementation in the style of the
// Phoenix pthreads baseline: static word-aligned chunks, one sorted-list
// dictionary per worker, then a parallel pairwise merge tree that "uses
// all processors in the system to merge different pieces of the lists at
// the end of the program".
func RunCP(in *Input, workers int) *Output {
	if workers < 1 {
		workers = 1
	}
	chunks := splitWords(in.Text, workload.Split(len(in.Text), workers))
	parts := make([]*listDict, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		i, c := i, c
		parts[i] = &listDict{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			countIntoList(c, parts[i])
		}()
	}
	wg.Wait()
	// Parallel pairwise merge tree.
	for stride := 1; stride < len(parts); stride *= 2 {
		var mg sync.WaitGroup
		for i := 0; i+stride < len(parts); i += 2 * stride {
			i := i
			mg.Add(1)
			go func() {
				defer mg.Done()
				parts[i] = mergeList(parts[i], parts[i+stride])
			}()
		}
		mg.Wait()
	}
	var counts map[string]int64
	if len(parts) > 0 {
		counts = parts[0].freeze()
	} else {
		counts = map[string]int64{}
	}
	return &Output{Counts: counts, Top: top(counts, TopN)}
}
