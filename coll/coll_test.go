package coll

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	prometheus "repro"
)

func newRT(t *testing.T) *prometheus.Runtime {
	t.Helper()
	rt := prometheus.Init(prometheus.WithDelegates(4))
	t.Cleanup(rt.Terminate)
	return rt
}

// scatter delegates one op per item across many serialization sets.
func scatter[E any](rt *prometheus.Runtime, items []E, fn func(c *prometheus.Ctx, e E)) {
	ws := make([]*prometheus.Writable[E], len(items))
	for i, e := range items {
		ws[i] = prometheus.NewWritable(rt, e)
	}
	rt.BeginIsolation()
	prometheus.DoAll(ws, func(c *prometheus.Ctx, p *E) { fn(c, *p) })
	rt.EndIsolation()
}

func TestMapInsertMerge(t *testing.T) {
	rt := newRT(t)
	m := NewMap[string, int](rt, func(a, b int) int { return a + b })
	scatter(rt, []string{"x", "y", "x", "z", "x", "y"}, func(c *prometheus.Ctx, w string) {
		m.Insert(c, w, 1)
	})
	got := m.Result()
	if got["x"] != 3 || got["y"] != 2 || got["z"] != 1 || m.Len() != 3 {
		t.Fatalf("map = %v", got)
	}
}

func TestMapUpdateAndGet(t *testing.T) {
	rt := newRT(t)
	m := NewMap[int, int](rt, func(a, b int) int { return a + b })
	c := rt.ProgramCtx()
	m.Update(c, 1, func(v int) int { return v + 10 })
	m.Update(c, 1, func(v int) int { return v + 10 })
	m.Set(c, 2, 5)
	if v, ok := m.Get(c, 1); !ok || v != 20 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if v, ok := m.Get(c, 2); !ok || v != 5 {
		t.Fatalf("Get(2) = %d,%v", v, ok)
	}
}

func TestSumIntAndFloat(t *testing.T) {
	rt := newRT(t)
	si := NewSum[int64](rt)
	sf := NewSum[float64](rt)
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i + 1
	}
	scatter(rt, vals, func(c *prometheus.Ctx, v int) {
		si.Add(c, int64(v))
		sf.Add(c, 0.5)
	})
	if si.Result() != 5050 {
		t.Fatalf("int sum = %d, want 5050", si.Result())
	}
	if sf.Result() != 50.0 {
		t.Fatalf("float sum = %f, want 50", sf.Result())
	}
}

func TestMultipleEpochsAccumulate(t *testing.T) {
	rt := newRT(t)
	cnt := NewMap[int, int64](rt, addInt64)
	w := prometheus.NewWritable(rt, 0)
	for e := 0; e < 4; e++ {
		rt.BeginIsolation()
		w.Delegate(func(c *prometheus.Ctx, _ *int) { cnt.Insert(c, 7, 1) })
		rt.EndIsolation()
	}
	if got := cnt.Result()[7]; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
}

func addInt64(a, b int64) int64 { return a + b }

// TestQuickCounterMatchesSequential: counting random word streams into a
// reducible map gives a plain map's counts, on the parallel runtime and in
// Sequential mode alike.
func TestQuickCounterMatchesSequential(t *testing.T) {
	rt := newRT(t)
	seq := prometheus.Init(prometheus.Sequential())
	t.Cleanup(seq.Terminate)
	count := func(rt *prometheus.Runtime, words []string) map[string]int64 {
		c := NewMap[string, int64](rt, addInt64)
		scatter(rt, words, func(ctx *prometheus.Ctx, w string) { c.Insert(ctx, w, 1) })
		return c.Result()
	}
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		words := make([]string, int(n%512))
		for i := range words {
			words[i] = string(rune('a' + r.Intn(8)))
		}
		want := map[string]int64{}
		for _, w := range words {
			want[w]++
		}
		return maps.Equal(count(rt, words), want) && maps.Equal(count(seq, words), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
