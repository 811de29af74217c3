package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func smallInput() *Input {
	cfg := workload.KMeansConfig{Seed: 4, Points: 3000, Clusters: 12, Dims: 6, Iters: 5}
	return &Input{Points: workload.GeneratePoints(cfg), Clusters: 12, Iters: 5, Dims: 6}
}

// centroidsClose compares centroid sets with a tolerance: parallel variants
// sum coordinates in different orders, so bit-equality is not required
// (floating-point addition is not associative), but the results must agree
// to high precision.
func centroidsClose(t *testing.T, got, want []workload.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d centroids, want %d", label, len(got), len(want))
	}
	for c := range want {
		for d := range want[c] {
			if math.Abs(got[c][d]-want[c][d]) > 1e-6 {
				t.Fatalf("%s: centroid %d dim %d = %f, want %f", label, c, d, got[c][d], want[c][d])
			}
		}
	}
}

func assignEqual(t *testing.T, got, want []int, label string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d assigned to %d, want %d", label, i, got[i], want[i])
		}
	}
}

// dist2 is squared Euclidean distance, summed in dimension order.
func dist2(a, b workload.Point) float64 {
	var s float64
	for d := range a {
		diff := a[d] - b[d]
		s += float64(diff * diff)
	}
	return s
}

// nearest is the brute-force oracle for space.nearest: every centroid's
// full distance, ties broken by lowest index.
func nearest(p workload.Point, cents []workload.Point) int {
	best, bestD := 0, math.MaxFloat64
	for c, cent := range cents {
		if d := dist2(p, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func TestNearestTieBreak(t *testing.T) {
	p := workload.Point{0, 0}
	cents := []workload.Point{{1, 0}, {-1, 0}, {0, 1}}
	if got := nearest(p, cents); got != 0 {
		t.Fatalf("tie should break to lowest index, got %d", got)
	}
	var sp space
	sp.build(cents, 2)
	for hint := range cents {
		if got := sp.nearest(p, hint); got != 0 {
			t.Fatalf("hint %d: tie should break to lowest index, got %d", hint, got)
		}
	}
}

// TestNearestMatchesOracle: on integer grids, where distances are exact and
// ties and pruning boundaries (|h−c| = 2|p−h|) are common, the pruned
// search returns the oracle's index from every hint. D runs past a
// multiple of four so the search's tail is exercised; centroids repeat,
// and points sit on centroids and on the midpoints between them.
func TestNearestMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	grid := func(dims int) workload.Point {
		p := make(workload.Point, dims)
		for d := range p {
			p[d] = float64(r.Intn(7) - 3)
		}
		return p
	}
	var sp space
	for trial := 0; trial < 3000; trial++ {
		dims, k := 1+trial%7, 1+r.Intn(9)
		cents := make([]workload.Point, k)
		for c := range cents {
			if c > 0 && r.Intn(4) == 0 {
				cents[c] = cents[r.Intn(c)]
			} else {
				cents[c] = grid(dims)
			}
		}
		pts := []workload.Point{}
		for i := 0; i < 8; i++ {
			pts = append(pts, grid(dims))
		}
		for c := range cents {
			pts = append(pts, cents[c])
			h := cents[r.Intn(k)]
			mid := make(workload.Point, dims)
			for d := range mid {
				mid[d] = (h[d] + cents[c][d]) / 2
			}
			pts = append(pts, mid)
		}
		sp.build(cents, dims)
		for _, p := range pts {
			want := nearest(p, cents)
			for hint := range cents {
				if got := sp.nearest(p, hint); got != want {
					t.Fatalf("dims=%d cents=%v p=%v hint=%d: got %d, want %d", dims, cents, p, hint, got, want)
				}
			}
		}
	}
}

// TestNearestMatchesOracleGaussian: the same on the workload's own
// clustered points, whose distances round.
func TestNearestMatchesOracleGaussian(t *testing.T) {
	in := smallInput()
	var sp space
	sp.build(in.Points[:in.Clusters], in.Dims)
	r := rand.New(rand.NewSource(2))
	for _, p := range in.Points {
		want := nearest(p, in.Points[:in.Clusters])
		if got := sp.nearest(p, r.Intn(in.Clusters)); got != want {
			t.Fatalf("p=%v: got %d, want %d", p, got, want)
		}
	}
}

func TestSeqConverges(t *testing.T) {
	// With enough iterations Lloyd's algorithm reaches a fixed point, where
	// every point is assigned to its nearest final centroid. (Mid-run,
	// assignments lag the final centroid update by one iteration.)
	in := smallInput()
	in.Iters = 100
	out := RunSeq(in)
	for i, p := range in.Points {
		if out.Assign[i] != nearest(p, out.Centroids) {
			t.Fatalf("point %d not assigned to nearest final centroid", i)
		}
	}
}

func TestCPMatchesSeq(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, workers := range []int{1, 3, 8} {
		got := RunCP(in, workers)
		assignEqual(t, got.Assign, want.Assign, "cp")
		centroidsClose(t, got.Centroids, want.Centroids, "cp")
	}
}

func TestSSMatchesSeq(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, delegates := range []int{1, 4} {
		got, _ := RunSS(in, delegates)
		assignEqual(t, got.Assign, want.Assign, "ss")
		centroidsClose(t, got.Centroids, want.Centroids, "ss")
	}
}

func TestSSNaiveMatchesSeq(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	got, _ := RunSSNaive(in, 4)
	assignEqual(t, got.Assign, want.Assign, "ss-naive")
	centroidsClose(t, got.Centroids, want.Centroids, "ss-naive")
}

func TestEmptyClustersKeepCentroid(t *testing.T) {
	// Two far points, 3 clusters seeded from the first points: cluster 2
	// duplicates cluster 0's seed and ends up empty, keeping its centroid.
	in := &Input{
		Points:   []workload.Point{{0, 0}, {10, 10}},
		Clusters: 3,
		Iters:    3,
		Dims:     2,
	}
	out := RunSeq(in)
	if len(out.Centroids) != 3 {
		t.Fatal("centroid count changed")
	}
	for _, c := range out.Centroids {
		for _, v := range c {
			if math.IsNaN(v) {
				t.Fatal("NaN centroid from empty cluster")
			}
		}
	}
}

func TestZeroIters(t *testing.T) {
	in := smallInput()
	in.Iters = 0
	out := RunSeq(in)
	centroidsClose(t, out.Centroids, initialCentroids(in), "zero-iters")
}

// nearestSink keeps BenchmarkNearestM's calls from being optimized away.
var nearestSink int

// BenchmarkNearestM: one point's assignment at M, in the middle of a run:
// against the centroids after five iterations, hinted with the point's
// assignment in the fifth.
func BenchmarkNearestM(b *testing.B) {
	in := Load(workload.Medium)
	in.Iters = 5
	out := RunSeq(in)
	var sp space
	sp.build(out.Centroids, in.Dims)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(in.Points)
		nearestSink = sp.nearest(in.Points[j], out.Assign[j])
	}
}
