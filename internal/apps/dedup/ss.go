package dedup

import (
	"crypto/sha1"

	prometheus "repro"
	"repro/internal/workload"
)

// chunkObj is the per-chunk writable object. Delegated stages store their
// results in the object (the paper's void-return restructuring); the
// program context reads them back after synchronization.
type chunkObj struct {
	data       []byte
	fp         fingerprint
	uniqueIdx  int // -1 for duplicates
	dupOf      int
	compressed []byte
}

// RunSS is the serialization-sets implementation. It uses the epoch
// technique of §2.2 (different data partitions in different isolation
// epochs) rather than a free-running pipeline:
//
//	epoch 1: the stream's shards list their candidate chunk ends, the
//	         program context scanning its share of them while the
//	         delegates scan the rest (see cutSS); the program context
//	         then picks the boundaries and delegates the fingerprinting of
//	         every chunk (data parallel);
//	epoch 2: the program context makes dedup decisions in stream order —
//	         brief fingerprint-table accesses that stay in the program
//	         context per §2.2 technique 3 — and immediately delegates
//	         compression of each unique chunk, overlapping the decision
//	         scan with compression;
//	aggregation: the archive is assembled in order, allocated once at
//	         its exact size.
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs with a caller-supplied runtime.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	// Epoch 1: cut the stream and fingerprint all chunks in parallel.
	rt.BeginIsolation()
	chunks := cutSS(rt, in.Data)
	objs := make([]*prometheus.Writable[chunkObj], len(chunks))
	for i, c := range chunks {
		objs[i] = prometheus.NewWritable(rt, chunkObj{data: c.Data, uniqueIdx: -1})
	}
	prometheus.DoAll(objs, func(c *prometheus.Ctx, o *chunkObj) {
		o.fp = fingerprint(sha1.Sum(o.data))
	})
	rt.EndIsolation()

	// Epoch 2: dedup decisions in stream order + delegated compression.
	table := map[fingerprint]int{}
	unique := 0
	rt.BeginIsolation()
	for _, w := range objs {
		// Reading the fingerprint is a dependent operation: Call reclaims
		// ownership (a no-op here since epoch 1 already synchronized).
		fp := prometheus.Call(w, func(o *chunkObj) fingerprint { return o.fp })
		if idx, ok := table[fp]; ok {
			w.Call(func(o *chunkObj) { o.dupOf = idx })
			continue
		}
		idx := unique
		table[fp] = idx
		unique++
		w.Delegate(func(c *prometheus.Ctx, o *chunkObj) {
			o.uniqueIdx = idx
			o.compressed = compress(o.data)
		})
	}
	rt.EndIsolation()

	// Aggregation: assemble the archive in stream order, into one
	// allocation of its exact size.
	size := recordHeader * len(objs)
	for _, w := range objs {
		w.Call(func(o *chunkObj) { size += len(o.compressed) })
	}
	out := &Output{Chunks: len(chunks), Unique: unique, Archive: make([]byte, 0, size)}
	for _, w := range objs {
		w.Call(func(o *chunkObj) {
			if o.uniqueIdx >= 0 {
				out.Archive = appendUnique(out.Archive, o.compressed)
			} else {
				out.Archive = appendDup(out.Archive, o.dupOf)
			}
		})
	}
	return out, rt.Stats()
}

// shard is a part of the stream and its candidate chunk ends.
type shard struct {
	data   []byte
	lo, hi int
	cands  []int
}

func (s *shard) scan() { s.cands = candidates(nil, s.data, s.lo, s.hi) }

// cutSS is Split under the model, inside the open isolation epoch: the
// stream is cut into workload.Chunks shards, one set each, that list their
// candidate chunk ends. The delegates scan the shards the program context
// delegates; it scans every NumContexts-th shard itself in the meantime (a
// reclaim parks rather than helps, so the program context takes its share
// up front), then reclaims the lists in stream order and picks the
// boundaries with cut.
func cutSS(rt *prometheus.Runtime, data []byte) []Chunk {
	rs := workload.Chunks(len(data), rt.NumContexts())
	shards := make([]*prometheus.Writable[shard], len(rs))
	for i, r := range rs {
		shards[i] = prometheus.NewWritable(rt, shard{data: data, lo: r.Lo, hi: r.Hi})
	}
	own := func(i int) bool { return i%rt.NumContexts() == 0 }
	for i, w := range shards {
		if !own(i) {
			w.Delegate(func(_ *prometheus.Ctx, s *shard) { s.scan() })
		}
	}
	for i, w := range shards {
		if own(i) {
			w.Call((*shard).scan)
		}
	}
	var cands []int
	for _, w := range shards {
		w.Call(func(s *shard) { cands = append(cands, s.cands...) })
	}
	return cut(data, cands)
}
