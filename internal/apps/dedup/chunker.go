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
