package workload

import (
	"bytes"
	"testing"
)

func TestSizeClassParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SizeClass
		ok   bool
	}{
		{"S", Small, true}, {"m", Medium, true}, {"large", Large, true}, {"x", Small, false},
	} {
		got, ok := ParseSize(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("ParseSize(%q) = %v,%v", tc.in, got, ok)
		}
	}
	if Small.String() != "S" || Medium.String() != "M" || Large.String() != "L" {
		t.Error("SizeClass.String wrong")
	}
}

func TestTextDeterministicAndSized(t *testing.T) {
	cfg := TextConfig{Seed: 1, Bytes: 100000, VocabSize: 500}
	a := GenerateText(cfg)
	b := GenerateText(cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("text generation not deterministic")
	}
	if len(a) < cfg.Bytes || len(a) > cfg.Bytes+64 {
		t.Fatalf("size = %d, want ~%d", len(a), cfg.Bytes)
	}
}

func TestTextZipfSkew(t *testing.T) {
	data := GenerateText(TextConfig{Seed: 2, Bytes: 200000, VocabSize: 1000})
	counts := map[string]int{}
	for _, w := range bytes.Fields(data) {
		counts[string(w)]++
	}
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	// Zipf(1.1): the most common word should dominate well beyond uniform.
	if max < 10*total/len(counts) {
		t.Errorf("distribution looks uniform: max=%d mean=%d", max, total/len(counts))
	}
}

func TestHTMLTreeShape(t *testing.T) {
	cfg := HTMLSize(Small)
	tr := GenerateHTMLTree(cfg)
	if len(tr.Docs) != cfg.Files {
		t.Fatalf("files = %d, want %d", len(tr.Docs), cfg.Files)
	}
	if len(tr.DirChildren) != cfg.Dirs+1 {
		t.Fatalf("dirs = %d, want %d", len(tr.DirChildren), cfg.Dirs+1)
	}
	// All files reachable from the root through DirFiles.
	reach := 0
	var walk func(dir string)
	walk = func(dir string) {
		reach += len(tr.DirFiles[dir])
		for _, sub := range tr.DirChildren[dir] {
			walk(sub)
		}
	}
	walk("/")
	if reach != cfg.Files {
		t.Fatalf("reachable files = %d, want %d", reach, cfg.Files)
	}
	// Content contains anchors drawn from the pool.
	if !bytes.Contains(tr.Docs[0].Content, []byte("<a href=")) {
		t.Fatal("no links generated")
	}
	if tr.TotalBytes() <= 0 {
		t.Fatal("empty corpus")
	}
}

func TestHTMLDeterministic(t *testing.T) {
	a := GenerateHTMLTree(HTMLSize(Small))
	b := GenerateHTMLTree(HTMLSize(Small))
	if len(a.Docs) != len(b.Docs) {
		t.Fatal("nondeterministic file count")
	}
	for i := range a.Docs {
		if a.Docs[i].Path != b.Docs[i].Path || !bytes.Equal(a.Docs[i].Content, b.Docs[i].Content) {
			t.Fatalf("doc %d differs between runs", i)
		}
	}
}

func TestOptionsRanges(t *testing.T) {
	opts := GenerateOptions(3, 1000)
	if len(opts) != 1000 {
		t.Fatal("wrong count")
	}
	calls := 0
	for _, o := range opts {
		if o.Spot < 50 || o.Spot > 150 || o.Vol <= 0 || o.Time <= 0 {
			t.Fatalf("option out of range: %+v", o)
		}
		if o.Call {
			calls++
		}
	}
	if calls == 0 || calls == 1000 {
		t.Error("option types not mixed")
	}
}

func TestBitmapSizeAndSkew(t *testing.T) {
	data := GenerateBitmap(5, 10000)
	if len(data) != 30000 {
		t.Fatalf("len = %d, want 30000", len(data))
	}
	// Red channel is triangular: mid-range values more common than extremes.
	var hist [256]int
	for i := 0; i < len(data); i += 3 {
		hist[data[i]]++
	}
	if hist[127] <= hist[1] {
		t.Error("red channel not triangular")
	}
}

func TestPointsClustered(t *testing.T) {
	cfg := KMeansConfig{Seed: 9, Points: 2000, Clusters: 5, Dims: 4, Iters: 1}
	pts := GeneratePoints(cfg)
	if len(pts) != 2000 || len(pts[0]) != 4 {
		t.Fatal("wrong shape")
	}
}

func TestBodiesInSphere(t *testing.T) {
	cfg := NBodyConfig{Seed: 1, Bodies: 500, Steps: 1}
	bodies := GenerateBodies(cfg)
	if len(bodies) != 500 {
		t.Fatal("wrong count")
	}
	for _, b := range bodies {
		r2 := b.PX*b.PX + b.PY*b.PY + b.PZ*b.PZ
		if r2 > 100*100+1e-6 {
			t.Fatalf("body outside sphere: r2=%f", r2)
		}
		if b.Mass < 1 || b.Mass > 10 {
			t.Fatalf("mass out of range: %f", b.Mass)
		}
	}
}

func TestTransactionsHaveFrequentPatterns(t *testing.T) {
	cfg := TxnConfig{Seed: 2, Count: 5000, Items: 200, Patterns: 10, PatternLen: 4, TxnLen: 8, MinSupport: 0.02}
	txns := GenerateTransactions(cfg)
	if len(txns) != 5000 {
		t.Fatal("wrong count")
	}
	counts := map[int]int{}
	for _, txn := range txns {
		seen := map[int]bool{}
		for _, it := range txn {
			if it < 0 || it >= cfg.Items {
				t.Fatalf("item %d out of universe", it)
			}
			if seen[it] {
				t.Fatal("duplicate item within transaction")
			}
			seen[it] = true
			counts[it]++
		}
	}
	// At least some items should clear the support threshold.
	freq := 0
	for _, c := range counts {
		if float64(c) >= cfg.MinSupport*float64(cfg.Count) {
			freq++
		}
	}
	if freq < 5 {
		t.Errorf("only %d frequent items; generator too noisy", freq)
	}
}

func TestDedupStreamRedundancy(t *testing.T) {
	lo := GenerateDedupStream(DedupConfig{Seed: 1, Bytes: 1 << 20, SegmentLen: 2048, Redundancy: 0.1})
	hi := GenerateDedupStream(DedupConfig{Seed: 1, Bytes: 1 << 20, SegmentLen: 2048, Redundancy: 0.9})
	if len(lo) != 1<<20 || len(hi) != 1<<20 {
		t.Fatal("wrong sizes")
	}
	// Proxy for dedupability: count distinct 64-byte shingles sampled every
	// 16 bytes. Repeated segments repeat their shingles at any alignment.
	distinct := func(data []byte) int {
		set := map[string]bool{}
		for i := 0; i+64 <= len(data); i += 16 {
			set[string(data[i:i+64])] = true
		}
		return len(set)
	}
	if d1, d2 := distinct(lo), distinct(hi); d2 >= d1 {
		t.Errorf("high redundancy stream has %d distinct blocks, low has %d", d2, d1)
	}
}

func TestDedupMediumAnomaly(t *testing.T) {
	// The Medium class must carry lower redundancy than Small and Large —
	// more unique chunks, more parallel compression work — reproducing the
	// paper's Figure 5b dedup anomaly (medium speedup out of line with
	// input size).
	s, m, l := DedupSize(Small), DedupSize(Medium), DedupSize(Large)
	if m.Redundancy >= s.Redundancy || m.Redundancy >= l.Redundancy {
		t.Fatalf("medium redundancy %f not lower than S %f / L %f", m.Redundancy, s.Redundancy, l.Redundancy)
	}
}

func TestSizeMonotonicity(t *testing.T) {
	if !(OptionsSize(Small) < OptionsSize(Medium) && OptionsSize(Medium) < OptionsSize(Large)) {
		t.Error("options sizes not increasing")
	}
	if !(BitmapSize(Small) < BitmapSize(Medium) && BitmapSize(Medium) < BitmapSize(Large)) {
		t.Error("bitmap sizes not increasing")
	}
	if !(TxnSize(Small).Count < TxnSize(Medium).Count && TxnSize(Medium).Count < TxnSize(Large).Count) {
		t.Error("txn sizes not increasing")
	}
	if !(KMeansSize(Small).Points < KMeansSize(Medium).Points) {
		t.Error("kmeans sizes not increasing")
	}
	if !(NBodySize(Small).Bodies < NBodySize(Medium).Bodies) {
		t.Error("nbody sizes not increasing")
	}
	if !(HTMLSize(Small).Files < HTMLSize(Medium).Files) {
		t.Error("html sizes not increasing")
	}
	if !(DedupSize(Small).Bytes < DedupSize(Medium).Bytes && DedupSize(Medium).Bytes < DedupSize(Large).Bytes) {
		t.Error("dedup sizes not increasing")
	}
	if !(TextSize(Small).Bytes < TextSize(Medium).Bytes) {
		t.Error("text sizes not increasing")
	}
}

// TestSplitCoversInOrder: the ranges tile [0, n) in order, with no gap,
// overlap or empty range; n < parts gives n singletons, n = 0 none.
func TestSplitCoversInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 127, 128, 1000, 4096, 100003} {
		for contexts := 1; contexts <= 16; contexts++ {
			rs := Chunks(n, contexts)
			want := min(n, ChunksPerContext*contexts)
			if len(rs) != want {
				t.Fatalf("Chunks(%d, %d): %d ranges, want %d", n, contexts, len(rs), want)
			}
			at := 0
			for i, r := range rs {
				if r.Lo != at || r.Hi <= r.Lo {
					t.Fatalf("Chunks(%d, %d): range %d is [%d, %d), want a non-empty range from %d", n, contexts, i, r.Lo, r.Hi, at)
				}
				if n < ChunksPerContext*contexts && r.Hi != r.Lo+1 {
					t.Fatalf("Chunks(%d, %d): range %d is [%d, %d), want a singleton", n, contexts, i, r.Lo, r.Hi)
				}
				at = r.Hi
			}
			if at != n {
				t.Fatalf("Chunks(%d, %d): ranges end at %d, want %d", n, contexts, at, n)
			}
		}
	}
	if rs := Split(5, 2); len(rs) != 2 || rs[0] != (Range{0, 2}) || rs[1] != (Range{2, 5}) {
		t.Fatalf("Split(5, 2) = %v", rs)
	}
}
