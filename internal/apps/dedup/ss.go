package dedup

import (
	"crypto/sha1"

	prometheus "repro"
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
//	epoch 1: fingerprinting of every chunk is delegated (data parallel);
//	epoch 2: the program context makes dedup decisions in stream order —
//	         brief fingerprint-table accesses that stay in the program
//	         context per §2.2 technique 3 — and immediately delegates
//	         compression of each unique chunk, overlapping the decision
//	         scan with compression;
//	aggregation: the archive is assembled in order.
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs with a caller-supplied runtime.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	chunks := Split(in.Data)
	objs := make([]*prometheus.Writable[chunkObj], len(chunks))
	for i, c := range chunks {
		objs[i] = prometheus.NewWritable(rt, chunkObj{data: c.Data, uniqueIdx: -1})
	}

	// Epoch 1: fingerprint all chunks in parallel.
	rt.BeginIsolation()
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

	// Aggregation: assemble the archive in stream order.
	out := &Output{Chunks: len(chunks), Unique: unique}
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
