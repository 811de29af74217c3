// Package kmeans reproduces the NU-MineBench kmeans benchmark (Table 2):
// Lloyd's algorithm over an n-dimensional point cloud. The paper reports
// that its Prometheus port used "an inferior algorithm" — iterating over
// points and cluster updates separately — and proposes fixing it with
// partial sums and a reduction (§5.1). Both are implemented here: RunSS
// uses the proposed reduction formulation, RunSSNaive the two-pass version
// the paper measured, which is the basis of the kmeans ablation benchmark.
//
// Every variant assigns points with the same exact pruned search (after
// Elkan's triangle-inequality acceleration): a point's last assignment is
// its hint, and the centroids the hint's distance rules out are skipped
// (space.nearest). That makes assignment several times cheaper, so
// RunSSNaive's sequential accumulation is a larger share of its ablation
// than it was with a brute-force search.
package kmeans

import (
	"slices"

	"repro/internal/workload"
)

// Input is the point cloud plus clustering parameters.
type Input struct {
	Points   []workload.Point
	Clusters int
	Iters    int
	Dims     int
}

// Output is the final centroids and each point's cluster assignment.
type Output struct {
	Centroids []workload.Point
	Assign    []int
}

// Load generates the input for a size class.
func Load(size workload.SizeClass) *Input {
	cfg := workload.KMeansSize(size)
	return &Input{
		Points:   workload.GeneratePoints(cfg),
		Clusters: cfg.Clusters,
		Iters:    cfg.Iters,
		Dims:     cfg.Dims,
	}
}

// initialCentroids picks the first k points, the deterministic seeding
// NU-MineBench uses.
func initialCentroids(in *Input) []workload.Point {
	cents := make([]workload.Point, in.Clusters)
	for i := range cents {
		cents[i] = append(workload.Point(nil), in.Points[i%len(in.Points)]...)
	}
	return cents
}

// space is one iteration's centroids laid out for the pruned nearest-centroid
// search: read-only while the points are assigned, rebuilt between
// iterations over the same arrays.
type space struct {
	k, dims int
	cents   []float64 // row-major k×dims
	quarter []float64 // k×k: |h−c|²/4, shrunk by the margin below
}

// build lays out cents and their pairwise table.
//
// The table prunes by the triangle inequality: if |h−c|²/4 > |p−h|² then
// |p−c| ≥ |h−c| − |p−h| > |p−h|, so c loses to h outright, whatever its
// index. The search compares rounded values, so each entry is shrunk by a
// relative margin m until the test on rounded values still implies that.
// A D-term squared distance summed in order is within a relative e =
// (D+2)·2⁻⁵³ of the exact one (the difference's rounding, squared, the
// square's, and D−1 in the sum; no term below the normal range), and the
// shrink adds two roundings. A rounded entry above the rounded s then
// gives |h−c|²/4 > S·(1+x), with S the exact |p−h|² and x ≈ m − 2e −
// 2·2⁻⁵³, hence |p−c|² > S·(1+2x), and the rounded |p−c|² exceeds the
// rounded s once x > e. So m > 3e + 2·2⁻⁵³ suffices, and m = 8e is more
// than twice that for every D; from D ≈ 1.1·10¹⁵ on m ≥ 1 and nothing is
// pruned.
func (sp *space) build(cents []workload.Point, dims int) {
	k := len(cents)
	sp.k, sp.dims = k, dims
	sp.cents = slices.Grow(sp.cents[:0], k*dims)[:k*dims]
	for c, cent := range cents {
		copy(sp.cents[c*dims:(c+1)*dims], cent)
	}
	shrink := (1 - float64(8*(dims+2))*0x1p-53) / 4
	sp.quarter = slices.Grow(sp.quarter[:0], k*k)[:k*k]
	for h := 0; h < k; h++ {
		sp.quarter[h*k+h] = 0
		for c := h + 1; c < k; c++ {
			q := sp.dist2(h, cents[c]) * shrink
			sp.quarter[h*k+c], sp.quarter[c*k+h] = q, q
		}
	}
}

// dist2 is the squared Euclidean distance from centroid c to p, summed in
// dimension order. float64() keeps each square rounded on its own, so no
// platform fuses it into the sum.
func (sp *space) dist2(c int, p workload.Point) float64 {
	row := sp.cents[c*sp.dims : (c+1)*sp.dims]
	var s float64
	for d, x := range row {
		diff := p[d] - x
		s += float64(diff * diff)
	}
	return s
}

// nearest returns the index of the centroid closest to p, ties broken by
// lowest index so every implementation assigns identically. hint is a
// guess (the point's last assignment): its distance s prunes every
// centroid whose table entry exceeds s, and the others sum their distance
// four dimensions at a time, in dimension order, stopping once the
// partial sum can no longer win.
func (sp *space) nearest(p workload.Point, hint int) int {
	k, dims := sp.k, sp.dims
	best, bestIdx := sp.dist2(hint, p), hint
	s, prune := best, sp.quarter[hint*k:(hint+1)*k]
	p = p[:dims]
next:
	for c := 0; c < k; c++ {
		if c == hint || prune[c] > s {
			continue
		}
		row := sp.cents[c*dims : (c+1)*dims]
		var t float64
		for d := 0; d < dims; d += 4 {
			if d+4 <= dims {
				x0, x1, x2, x3 := p[d]-row[d], p[d+1]-row[d+1], p[d+2]-row[d+2], p[d+3]-row[d+3]
				t += float64(x0 * x0)
				t += float64(x1 * x1)
				t += float64(x2 * x2)
				t += float64(x3 * x3)
			} else {
				for e := d; e < dims; e++ {
					x := p[e] - row[e]
					t += float64(x * x)
				}
			}
			// The partial sum only grows: once it cannot win, c has lost.
			if t > best || (t == best && c > bestIdx) {
				continue next
			}
		}
		best, bestIdx = t, c
	}
	return bestIdx
}

// partial accumulates per-cluster coordinate sums and member counts; the
// unit both the CP merge and the SS reduction combine.
type partial struct {
	sums   [][]float64 // [cluster][dim]
	counts []int64
}

func newPartial(clusters, dims int) partial {
	p := partial{sums: make([][]float64, clusters), counts: make([]int64, clusters)}
	for c := range p.sums {
		p.sums[c] = make([]float64, dims)
	}
	return p
}

func (p *partial) add(cluster int, pt workload.Point) {
	p.counts[cluster]++
	row := p.sums[cluster]
	for d := range pt {
		row[d] += pt[d]
	}
}

func (p *partial) merge(src *partial) {
	for c := range p.sums {
		p.counts[c] += src.counts[c]
		dst, s := p.sums[c], src.sums[c]
		for d := range dst {
			dst[d] += s[d]
		}
	}
}

// centroidsFrom turns accumulated sums into new centroids; empty clusters
// keep their previous centroid (NU-MineBench behaviour).
func centroidsFrom(p *partial, prev []workload.Point) []workload.Point {
	cents := make([]workload.Point, len(prev))
	for c := range cents {
		if p.counts[c] == 0 {
			cents[c] = append(workload.Point(nil), prev[c]...)
			continue
		}
		row := make(workload.Point, len(prev[c]))
		inv := 1 / float64(p.counts[c])
		for d := range row {
			row[d] = p.sums[c][d] * inv
		}
		cents[c] = row
	}
	return cents
}
