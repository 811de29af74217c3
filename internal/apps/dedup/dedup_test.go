package dedup

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func smallInput() *Input {
	return &Input{Data: workload.GenerateDedupStream(workload.DedupConfig{
		Seed: 6, Bytes: 1 << 20, SegmentLen: 4096, Redundancy: 0.6,
	})}
}

func TestSeqRoundTrip(t *testing.T) {
	in := smallInput()
	out := RunSeq(in)
	decoded, err := Decode(out.Archive)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(decoded, in.Data) {
		t.Fatal("round trip lost data")
	}
	if out.Unique >= out.Chunks {
		t.Fatalf("no deduplication: %d unique of %d chunks", out.Unique, out.Chunks)
	}
	if len(out.Archive) >= len(in.Data) {
		t.Fatalf("no compression: archive %d >= input %d", len(out.Archive), len(in.Data))
	}
}

func TestCPMatchesSeqExactly(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, workers := range []int{1, 2, 8} {
		got := RunCP(in, workers)
		if got.Chunks != want.Chunks || got.Unique != want.Unique {
			t.Fatalf("workers=%d: counters %d/%d, want %d/%d",
				workers, got.Chunks, got.Unique, want.Chunks, want.Unique)
		}
		if !bytes.Equal(got.Archive, want.Archive) {
			t.Fatalf("workers=%d: archives differ", workers)
		}
	}
}

func TestSSMatchesSeqExactly(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, delegates := range []int{1, 4, 8} {
		got, st := RunSS(in, delegates)
		if got.Chunks != want.Chunks || got.Unique != want.Unique {
			t.Fatalf("delegates=%d: counters %d/%d, want %d/%d",
				delegates, got.Chunks, got.Unique, want.Chunks, want.Unique)
		}
		if !bytes.Equal(got.Archive, want.Archive) {
			t.Fatalf("delegates=%d: archives differ", delegates)
		}
		if st.Epochs != 2 {
			t.Errorf("delegates=%d: %d epochs, want 2", delegates, st.Epochs)
		}
	}
}

func TestHighRedundancyDedups(t *testing.T) {
	hi := &Input{Data: workload.GenerateDedupStream(workload.DedupConfig{
		Seed: 7, Bytes: 1 << 20, SegmentLen: 4096, Redundancy: 0.9,
	})}
	lo := &Input{Data: workload.GenerateDedupStream(workload.DedupConfig{
		Seed: 7, Bytes: 1 << 20, SegmentLen: 4096, Redundancy: 0.1,
	})}
	hiOut, loOut := RunSeq(hi), RunSeq(lo)
	hiRatio := float64(hiOut.Unique) / float64(hiOut.Chunks)
	loRatio := float64(loOut.Unique) / float64(loOut.Chunks)
	if hiRatio >= loRatio {
		t.Fatalf("high redundancy unique ratio %.2f >= low %.2f", hiRatio, loRatio)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	out := RunSeq(&Input{Data: []byte("hello world hello world")})
	if _, err := Decode(out.Archive[:1]); err == nil {
		t.Fatal("truncated archive should fail")
	}
	bad := append([]byte{'X', 0, 0, 0, 0}, out.Archive...)
	if _, err := Decode(bad); err == nil {
		t.Fatal("unknown tag should fail")
	}
	if _, err := Decode([]byte{'D', 0, 0, 0, 9}); err == nil {
		t.Fatal("dangling dup reference should fail")
	}
}

func TestEmptyInput(t *testing.T) {
	in := &Input{}
	for _, out := range []*Output{RunSeq(in), RunCP(in, 4)} {
		if out.Chunks != 0 || len(out.Archive) != 0 {
			t.Fatal("empty input should produce empty archive")
		}
	}
	out, _ := RunSS(in, 2)
	if out.Chunks != 0 || len(out.Archive) != 0 {
		t.Fatal("empty input should produce empty archive (SS)")
	}
}

// freshCompress is compress with a new writer per call: the reference a
// recycled writer must match.
func freshCompress(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompressPooledMatchesFresh: a recycled writer produces the bytes a new
// one does, whatever the previous chunk through it was — so the archive is
// byte-identical to one built with a writer per chunk.
func TestCompressPooledMatchesFresh(t *testing.T) {
	random := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(random)
	shapes := map[string][]byte{
		"empty":          {},
		"one-byte":       {'x'},
		"compressible":   bytes.Repeat([]byte("serialization sets "), 4096),
		"incompressible": random,
		"short-random":   random[:100],
	}
	names := []string{"compressible", "empty", "incompressible", "one-byte", "short-random", "compressible", "empty"}
	for round := 0; round < 2; round++ {
		for _, name := range names {
			data := shapes[name]
			if got, want := compress(data), freshCompress(t, data); !bytes.Equal(got, want) {
				t.Fatalf("round %d %s: pooled writer gave %d bytes, a fresh one %d", round, name, len(got), len(want))
			}
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	data := []byte("aaaaaaaaaabbbbbbbbbbccccc compressible data data data")
	got, err := decompress(compress(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("compress round trip failed: %v", err)
	}
}
