package dedup

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomData(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

func TestSplitReassembles(t *testing.T) {
	data := randomData(1, 1<<20)
	chunks := Split(data)
	var joined []byte
	for i, c := range chunks {
		if c.Seq != i {
			t.Fatalf("chunk %d has Seq %d", i, c.Seq)
		}
		joined = append(joined, c.Data...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("chunks do not reassemble to input")
	}
}

func TestChunkBounds(t *testing.T) {
	data := randomData(2, 1<<20)
	chunks := Split(data)
	if len(chunks) < 2 {
		t.Fatalf("only %d chunks for 1 MB", len(chunks))
	}
	for i, c := range chunks {
		if len(c.Data) > MaxChunk {
			t.Fatalf("chunk %d exceeds max: %d", i, len(c.Data))
		}
		if i < len(chunks)-1 && len(c.Data) < MinChunk {
			t.Fatalf("non-final chunk %d below min: %d", i, len(c.Data))
		}
	}
}

func TestMeanChunkSizeReasonable(t *testing.T) {
	data := randomData(3, 4<<20)
	chunks := Split(data)
	mean := len(data) / len(chunks)
	// Target mean is ~4 KB (divisor 1<<12) clipped by min/max; accept a
	// generous band.
	if mean < 2<<10 || mean > 16<<10 {
		t.Fatalf("mean chunk = %d bytes, want ~4KB", mean)
	}
}

// TestShiftInvariance is the content-defined property: inserting a prefix
// shifts chunk boundaries locally, and chunking realigns — most chunks of
// the shifted stream also appear in the original.
func TestShiftInvariance(t *testing.T) {
	data := randomData(4, 1<<20)
	orig := map[uint64]bool{}
	for _, c := range Split(data) {
		orig[Fingerprint64(c.Data)] = true
	}
	shifted := append(randomData(5, 100), data...)
	matched, total := 0, 0
	for _, c := range Split(shifted) {
		total++
		if orig[Fingerprint64(c.Data)] {
			matched++
		}
	}
	if matched < total*7/10 {
		t.Fatalf("only %d/%d chunks realigned after shift", matched, total)
	}
}

func TestDeterministic(t *testing.T) {
	data := randomData(6, 1<<19)
	a, b := Split(data), Split(data)
	if len(a) != len(b) {
		t.Fatal("nondeterministic chunk count")
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

func TestSmallInputs(t *testing.T) {
	for _, n := range []int{0, 1, MinChunk - 1, MinChunk, MinChunk + 1} {
		data := randomData(7, n)
		chunks := Split(data)
		var joined []byte
		for _, c := range chunks {
			joined = append(joined, c.Data...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("n=%d: reassembly failed", n)
		}
		if n == 0 && len(chunks) != 0 {
			t.Fatal("empty input should produce no chunks")
		}
	}
}

func TestQuickReassembly(t *testing.T) {
	f := func(data []byte) bool {
		var joined []byte
		for _, c := range Split(data) {
			joined = append(joined, c.Data...)
		}
		return bytes.Equal(joined, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	if Fingerprint64([]byte("abc")) == Fingerprint64([]byte("abd")) {
		t.Fatal("fingerprint collision on near inputs")
	}
	if Fingerprint64(nil) != Fingerprint64([]byte{}) {
		t.Fatal("nil and empty should hash equal")
	}
}
