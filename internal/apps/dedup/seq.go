package dedup

import "crypto/sha1"

// RunSeq is the sequential reference: chunk, fingerprint, deduplicate and
// compress in stream order.
func RunSeq(in *Input) *Output {
	chunks := Split(in.Data)
	table := map[fingerprint]int{} // fingerprint -> unique index
	out := &Output{Chunks: len(chunks)}
	for _, c := range chunks {
		fp := fingerprint(sha1.Sum(c.Data))
		if idx, ok := table[fp]; ok {
			out.Archive = appendDup(out.Archive, idx)
			continue
		}
		table[fp] = out.Unique
		out.Unique++
		out.Archive = appendUnique(out.Archive, compress(c.Data))
	}
	return out
}
