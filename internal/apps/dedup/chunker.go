package dedup

// The content-defined chunking stage, in the style of the PARSEC dedup
// kernel: a rolling hash over a fixed window declares a chunk boundary
// whenever the hash matches a magic value modulo a divisor, so boundaries
// depend only on content (insertions shift boundaries locally instead of
// re-aligning the whole stream).
//
// The rolling hash is a buzhash (cyclic polynomial): per-byte update is two
// rotates and two table lookups, and the window contribution of the oldest
// byte cancels exactly.

// Parameters of the chunker. With divisor 1<<12 the mean chunk is ~4 KB,
// bracketed by the min/max bounds like PARSEC's dedup.
const (
	WindowSize = 48
	MinChunk   = 1 << 10 // 1 KB
	MaxChunk   = 1 << 15 // 32 KB
	divisor    = 1 << 12
	magic      = divisor - 1
)

// table is the buzhash byte-randomization table, filled deterministically
// from a SplitMix64 stream at package init.
var table [256]uint64

func init() {
	x := uint64(0x243F6A8885A308D3) // pi digits; any fixed seed works
	for i := range table {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		table[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Chunk is one content-defined piece of the input stream.
type Chunk struct {
	Seq  int // position in the stream, 0-based
	Data []byte
}

// Split cuts data into content-defined chunks. Every byte of data appears in
// exactly one chunk, in order. Chunks are slices into data (no copy).
func Split(data []byte) []Chunk {
	var chunks []Chunk
	start := 0
	for start < len(data) {
		end := boundary(data[start:])
		chunks = append(chunks, Chunk{Seq: len(chunks), Data: data[start : start+end]})
		start += end
	}
	return chunks
}

// boundary returns the length of the next chunk beginning at data[0].
func boundary(data []byte) int {
	n := len(data)
	if n <= MinChunk {
		return n
	}
	limit := n
	if limit > MaxChunk {
		limit = MaxChunk
	}
	var h uint64
	// Prime the window over the bytes leading up to the minimum boundary.
	begin := MinChunk - WindowSize
	for i := begin; i < MinChunk; i++ {
		h = rotl(h, 1) ^ table[data[i]]
	}
	for i := MinChunk; i < limit; i++ {
		if h&(divisor-1) == magic {
			return i
		}
		// Slide: remove data[i-WindowSize], add data[i].
		h = rotl(h, 1) ^ rotl(table[data[i-WindowSize]], WindowSize) ^ table[data[i]]
	}
	return limit
}

// The window's hash cancels exactly: at position c it is the hash of
// data[c-WindowSize:c] alone, whatever came before. So whether a chunk may
// end at c depends only on those bytes, and any part of the stream can list
// its candidate positions independently; cut then picks the boundaries
// from the list by boundary's rule, which is how RunSS splits the stream.

// candidates appends to dst, ascending, every position c in [lo, hi) at
// which a chunk may end: c ≥ WindowSize and the window before c hashes to
// magic. hi must not exceed len(data).
func candidates(dst []int, data []byte, lo, hi int) []int {
	lo = max(lo, WindowSize)
	if lo >= hi {
		return dst
	}
	var h uint64
	for _, b := range data[lo-WindowSize : lo] {
		h = rotl(h, 1) ^ table[b]
	}
	in := data[lo:hi]
	out := data[lo-WindowSize : hi-WindowSize] // out[i] leaves the window as in[i] enters
	for i, b := range in {
		if h&(divisor-1) == magic {
			dst = append(dst, lo+i)
		}
		h = rotl(h, 1) ^ rotl(table[out[i]], WindowSize) ^ table[b]
	}
	return dst
}

// cut returns Split(data), given every candidate position of data in
// ascending order: from each start, the chunk ends at the first candidate
// in [start+MinChunk, start+min(rest, MaxChunk)), or at that limit if there
// is none, and a rest of at most MinChunk is the last chunk.
func cut(data []byte, cands []int) []Chunk {
	var chunks []Chunk
	for start := 0; start < len(data); {
		end := len(data)
		if rest := end - start; rest > MinChunk {
			for len(cands) > 0 && cands[0] < start+MinChunk {
				cands = cands[1:]
			}
			end = start + min(rest, MaxChunk)
			if len(cands) > 0 && cands[0] < end {
				end = cands[0]
			}
		}
		chunks = append(chunks, Chunk{Seq: len(chunks), Data: data[start:end]})
		start = end
	}
	return chunks
}

// Fingerprint64 is an FNV-1a hash used for quick chunk identity in tests and
// load metrics (the dedup app itself uses SHA-1 for collision resistance).
func Fingerprint64(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
