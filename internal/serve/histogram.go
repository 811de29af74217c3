package serve

import "sync/atomic"

// histogram is a fixed-bucket histogram over int64 samples with lock-free
// atomic counters — the serving tier's latency metric primitive. Observe
// is safe from any goroutine, zero-allocation, and O(buckets) with no
// locks or compare-and-swap loops, so it sits on the request hot path;
// readers (Quantile, Buckets, Sum) take a per-bucket snapshot that may be
// slightly torn against concurrent writers — fine for monitoring, the
// only reader. The tier records microseconds (see metrics.observe);
// bucket bounds are fixed at construction, which is what keeps the write
// path free of resizing coordination.
type histogram struct {
	bounds []int64         // ascending upper bounds, one per counted bucket
	counts []atomic.Uint64 // len(bounds)+1: bounds buckets plus overflow
	sum    atomic.Int64
}

// newHistogram builds a histogram with the given strictly-ascending bucket
// upper bounds (a sample v lands in the first bucket with v <= bound, or in
// the implicit overflow bucket). Panics on unsorted or empty bounds — the
// construction-time check that keeps Observe check-free.
func newHistogram(bounds ...int64) *histogram {
	if len(bounds) == 0 {
		panic("serve: newHistogram: no bucket bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("serve: newHistogram: bucket bounds must be strictly ascending")
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample. Zero allocations, no locks; safe from any
// goroutine. The linear bucket scan beats binary search at monitoring
// bucket counts (~10–20): latencies cluster in the low buckets, so the
// scan usually ends within a cache line.
func (h *histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Sum returns the sum of all observed samples.
func (h *histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds. Read-only: the slice is the
// histogram's own, shared to keep the metrics exposition path
// allocation-free.
func (h *histogram) Bounds() []int64 { return h.bounds }

// Buckets appends the per-bucket sample counts (len(Bounds())+1 entries,
// the last being the overflow bucket) to dst and returns the extended
// slice. Allocation-free when dst has capacity.
func (h *histogram) Buckets(dst []uint64) []uint64 {
	for i := range h.counts {
		dst = append(dst, h.counts[i].Load())
	}
	return dst
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket containing the target rank, the standard fixed-bucket
// estimate. Samples in the overflow bucket are attributed to the highest
// bound — the estimate saturates there rather than extrapolating. Returns
// 0 when the histogram is empty.
func (h *histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Snapshot once so total and the walk agree with each other even while
	// writers race the read.
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(counts)-1 {
			if i >= len(h.bounds) {
				return float64(h.bounds[len(h.bounds)-1])
			}
			lo := 0.0
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(h.bounds[i])
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return float64(h.bounds[len(h.bounds)-1])
}
