package dedup

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	prometheus "repro"
	"repro/internal/workload"
)

// shardedCut lists data's candidates over shards cut at the given edges and
// picks the boundaries from their concatenation.
func shardedCut(data []byte, edges ...int) []Chunk {
	var cands []int
	lo := 0
	for _, e := range append(edges, len(data)) {
		e = min(max(e, lo), len(data))
		cands = candidates(cands, data, lo, e)
		lo = e
	}
	return cut(data, cands)
}

func checkCut(t *testing.T, name string, data []byte, edges ...int) {
	t.Helper()
	checkCutWant(t, name, Split(data), data, edges...)
}

func checkCutWant(t *testing.T, name string, want []Chunk, data []byte, edges ...int) {
	t.Helper()
	if got := shardedCut(data, edges...); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the sharded cut makes %d chunks, Split %d", name, len(got), len(want))
	}
}

// quiet returns n copies of a byte whose window hash never matches: a
// stream with no candidate position at all.
func quiet(t *testing.T, n int) []byte {
	for b := 0; b < 256; b++ {
		data := bytes.Repeat([]byte{byte(b)}, n)
		if len(candidates(nil, data, 0, n)) == 0 {
			return data
		}
	}
	t.Fatal("every byte value's window hash matches")
	return nil
}

// TestCutMatchesSplit: listing candidates in shards and picking the
// boundaries from them gives Split's chunks, on generated streams and on
// adversarial ones.
func TestCutMatchesSplit(t *testing.T) {
	for _, size := range []workload.SizeClass{workload.Small, workload.Medium} {
		data := Load(size).Data
		want := Split(data)
		for _, parts := range []int{1, 7, 128} {
			var edges []int
			for _, r := range workload.Split(len(data), parts) {
				edges = append(edges, r.Hi)
			}
			checkCutWant(t, size.String(), want, data, edges...)
		}
	}
	random := randomData(5, 1<<18)
	checkCut(t, "empty", nil)
	checkCut(t, "MinChunk bytes", random[:MinChunk], 500)
	checkCut(t, "MinChunk+1 bytes", random[:MinChunk+1], MinChunk)
	checkCut(t, "a stretch longer than MaxChunk with no candidate",
		append(append(random[:5000:5000], quiet(t, 3*MaxChunk)...), random[5000:9000]...), 6000, 40000)
	cands := candidates(nil, random, 0, len(random))
	if len(cands) < 3 {
		t.Fatalf("%d candidates in 256 KB of random bytes", len(cands))
	}
	// Chunks that end exactly at MinChunk: the stream starts MinChunk
	// before a candidate.
	at := cands[slices.IndexFunc(cands, func(c int) bool { return c >= MinChunk })]
	checkCut(t, "a candidate at MinChunk", random[at-MinChunk:])
	checkCut(t, "a candidate at MinChunk, past a shard edge", random[at-MinChunk:], MinChunk-1)
	for _, c := range cands[:3] {
		for _, e := range []int{c - 1, c, c + 1} {
			checkCut(t, "a shard edge near a candidate", random, e)
			checkCut(t, "a shard edge near a candidate, and one within a window of it", random, e-WindowSize/2, e)
		}
	}
}

// TestCutSSMatchesSplit: the cut RunSS makes under the model is Split's,
// whatever runs the shards.
func TestCutSSMatchesSplit(t *testing.T) {
	data := Load(workload.Small).Data
	want := Split(data)
	for _, opt := range [][]prometheus.Option{
		{prometheus.Sequential()}, {prometheus.WithDelegates(1)}, {prometheus.WithDelegates(3)},
	} {
		rt := prometheus.Init(opt...)
		rt.BeginIsolation()
		got := cutSS(rt, data)
		rt.EndIsolation()
		rt.Terminate()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d delegates: cutSS makes %d chunks, Split %d", rt.NumDelegates(), len(got), len(want))
		}
	}
}

// FuzzCut: for any stream and any two shard edges, the sharded cut is
// Split's. The seeds run in every plain go test.
func FuzzCut(f *testing.F) {
	random := randomData(6, 3*MaxChunk)
	f.Add([]byte{}, 0, 0)
	f.Add(random[:MinChunk], 10, 100)
	f.Add(random[:MinChunk+1], MinChunk, MinChunk+1)
	f.Add(random, MaxChunk, 2*MaxChunk)
	c := candidates(nil, random, 0, len(random))[0]
	f.Add(random, c-1, c)
	f.Add(random, c, c+1)
	f.Add(bytes.Repeat([]byte{'a'}, 2*MaxChunk+7), MaxChunk, MaxChunk+3)
	f.Fuzz(func(t *testing.T, data []byte, a, b int) {
		a, b = min(max(a, 0), len(data)), min(max(b, 0), len(data))
		checkCut(t, "fuzz", data, min(a, b), max(a, b))
	})
}

// BenchmarkDedupCutM: the cut at M — Split's one pass (split), and the
// sharded cut under the model with one delegate (model).
func BenchmarkDedupCutM(b *testing.B) {
	data := Load(workload.Medium).Data
	b.Run("split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Split(data)
		}
	})
	b.Run("model", func(b *testing.B) {
		rt := prometheus.Init(prometheus.WithDelegates(1))
		defer rt.Terminate()
		for i := 0; i < b.N; i++ {
			rt.BeginIsolation()
			cutSS(rt, data)
			rt.EndIsolation()
		}
	})
}
