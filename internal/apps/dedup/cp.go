package dedup

import (
	"crypto/sha1"
	"sync"
)

// RunCP is the conventional-parallel implementation mirroring the PARSEC
// pthreads pipeline: a chunking producer feeds fingerprint workers; a
// single dedup thread serializes fingerprint-table decisions; compression
// workers compress unique chunks; and a reorder-buffer writer reassembles
// the archive in stream order. Stage queues are channels; the dedup table
// is confined to one goroutine (in PARSEC it is a hash table with per-
// bucket locks).
func RunCP(in *Input, workers int) *Output {
	if workers < 1 {
		workers = 1
	}

	type fpJob struct {
		seq  int
		data []byte
		fp   fingerprint
	}
	type compJob struct {
		seq       int
		uniqueIdx int // -1 for duplicates
		dupOf     int // valid when uniqueIdx == -1
		data      []byte
	}
	type writeJob struct {
		seq        int
		uniqueIdx  int
		dupOf      int
		compressed []byte
	}

	chunks := Split(in.Data)
	out := &Output{Chunks: len(chunks)}

	// Stage 1 -> 2: fingerprint workers.
	fpIn := make(chan fpJob, 4*workers)
	fpOut := make(chan fpJob, 4*workers)
	var fpWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		fpWG.Add(1)
		go func() {
			defer fpWG.Done()
			for j := range fpIn {
				j.fp = fingerprint(sha1.Sum(j.data))
				fpOut <- j
			}
		}()
	}
	go func() {
		for _, c := range chunks {
			fpIn <- fpJob{seq: c.Seq, data: c.Data}
		}
		close(fpIn)
		fpWG.Wait()
		close(fpOut)
	}()

	// Stage 3: dedup decisions. Fingerprints arrive out of order; decisions
	// must be made in stream order for a canonical archive, so this stage
	// holds its own reorder buffer (PARSEC's anchor stage is likewise a
	// serial decision point).
	compIn := make(chan compJob, 4*workers)
	go func() {
		table := map[fingerprint]int{}
		pending := map[int]fpJob{}
		next, uniqueCount := 0, 0
		for j := range fpOut {
			pending[j.seq] = j
			for {
				p, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if idx, dup := table[p.fp]; dup {
					compIn <- compJob{seq: p.seq, uniqueIdx: -1, dupOf: idx}
				} else {
					table[p.fp] = uniqueCount
					compIn <- compJob{seq: p.seq, uniqueIdx: uniqueCount, data: p.data}
					uniqueCount++
				}
				next++
			}
		}
		out.Unique = uniqueCount
		close(compIn)
	}()

	// Stage 4: compression workers.
	writeIn := make(chan writeJob, 4*workers)
	var compWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		compWG.Add(1)
		go func() {
			defer compWG.Done()
			for j := range compIn {
				wj := writeJob{seq: j.seq, uniqueIdx: j.uniqueIdx, dupOf: j.dupOf}
				if j.uniqueIdx >= 0 {
					wj.compressed = compress(j.data)
				}
				writeIn <- wj
			}
		}()
	}
	go func() {
		compWG.Wait()
		close(writeIn)
	}()

	// Stage 5: ordered archive writer (reorder buffer keyed by seq).
	pending := map[int]writeJob{}
	next := 0
	for j := range writeIn {
		pending[j.seq] = j
		for {
			p, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if p.uniqueIdx >= 0 {
				out.Archive = appendUnique(out.Archive, p.compressed)
			} else {
				out.Archive = appendDup(out.Archive, p.dupOf)
			}
			next++
		}
	}
	return out
}
