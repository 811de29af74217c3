package prometheus

import (
	"testing"
	"testing/quick"
)

func TestReducibleSum(t *testing.T) {
	rt := newRT(t, WithDelegates(4))
	sum := NewReducible(rt, func() int64 { return 0 }, func(dst, src *int64) { *dst += *src })
	objs := make([]*Writable[int], 64)
	for i := range objs {
		objs[i] = NewWritable(rt, i)
	}
	rt.BeginIsolation()
	DoAll(objs, func(c *Ctx, p *int) {
		v := int64(*p)
		sum.Update(c, func(s *int64) { *s += v })
	})
	rt.EndIsolation()
	if got := *sum.Result(); got != 64*63/2 {
		t.Fatalf("sum = %d, want %d", got, 64*63/2)
	}
}

func TestReducibleMapMerge(t *testing.T) {
	rt := newRT(t, WithDelegates(4))
	m := NewReducible(rt,
		func() map[string]int { return map[string]int{} },
		func(dst, src *map[string]int) {
			for k, v := range *src {
				(*dst)[k] += v
			}
		})
	words := []string{"a", "b", "a", "c", "b", "a"}
	objs := make([]*Writable[string], len(words))
	for i, w := range words {
		objs[i] = NewWritable(rt, w)
	}
	rt.BeginIsolation()
	DoAll(objs, func(c *Ctx, s *string) {
		word := *s
		m.Update(c, func(view *map[string]int) { (*view)[word]++ })
	})
	rt.EndIsolation()
	got := *m.Result()
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		t.Fatalf("counts = %v", got)
	}
}

func TestReducibleReducesOnFirstAggregationAccess(t *testing.T) {
	rt := newRT(t, WithDelegates(2))
	r := NewReducible(rt, func() int { return 0 }, func(dst, src *int) { *dst += *src })
	w := NewWritable(rt, 0)
	rt.BeginIsolation()
	for i := 0; i < 10; i++ {
		w.Delegate(func(c *Ctx, _ *int) { r.Update(c, func(v *int) { *v++ }) })
	}
	rt.EndIsolation()
	if r.reduced() {
		t.Fatal("reduction should be pending after isolation with updates")
	}
	// First program-context access in the aggregation epoch reduces.
	if got := *r.View(rt.ProgramCtx()); got != 10 {
		t.Fatalf("view = %d, want 10", got)
	}
	if !r.reduced() {
		t.Fatal("reduction should have executed")
	}
}

func TestReducibleAccumulatesAcrossEpochsUntilRead(t *testing.T) {
	rt := newRT(t, WithDelegates(2))
	r := NewReducible(rt, func() int { return 0 }, func(dst, src *int) { *dst += *src })
	w := NewWritable(rt, 0)
	for e := 0; e < 3; e++ {
		rt.BeginIsolation()
		w.Delegate(func(c *Ctx, _ *int) { r.Update(c, func(v *int) { *v += 5 }) })
		rt.EndIsolation()
	}
	if got := *r.Result(); got != 15 {
		t.Fatalf("accumulated = %d, want 15", got)
	}
}

func TestReducibleResultDuringIsolationPanics(t *testing.T) {
	rt := newRT(t, WithDelegates(1))
	r := NewReducible(rt, func() int { return 0 }, func(dst, src *int) { *dst += *src })
	rt.BeginIsolation()
	defer rt.EndIsolation()
	defer expectError(t, ErrAPIMisuse)
	r.Result()
}

func TestReducibleProgramContextUpdates(t *testing.T) {
	rt := newRT(t, WithDelegates(2))
	r := NewReducible(rt, func() int { return 0 }, func(dst, src *int) { *dst += *src })
	rt.BeginIsolation()
	r.Update(rt.ProgramCtx(), func(v *int) { *v = 9 }) // program view counts too
	rt.EndIsolation()
	if got := *r.Result(); got != 9 {
		t.Fatalf("result = %d, want 9", got)
	}
}

func TestReducibleTreeOrderDeterministic(t *testing.T) {
	// combine is string concatenation — NOT commutative — so this test
	// pins down the fixed index order of the tree reduction.
	build := func(delegates int) string {
		rt := Init(WithDelegates(delegates))
		defer rt.Terminate()
		r := NewReducible(rt, func() string { return "" }, func(dst, src *string) { *dst += *src })
		// Deterministically seed every context view.
		for i := 0; i < rt.NumContexts(); i++ {
			*r.views[i] = string(rune('a' + i))
		}
		r.dirty.Store(true)
		return *r.Result()
	}
	if got := build(3); got != "abcd" {
		t.Fatalf("reduction order = %q, want abcd", got)
	}
	if got := build(7); got != "abcdefgh" {
		t.Fatalf("reduction order = %q, want abcdefgh", got)
	}
}

// TestQuickReducibleEqualsSequentialFold is the reduction correctness
// property: for commutative+associative ops, the parallel reduction equals
// the sequential fold regardless of which contexts received which updates.
func TestQuickReducibleEqualsSequentialFold(t *testing.T) {
	rt := newRT(t, WithDelegates(6))
	f := func(vals []int32) bool {
		r := NewReducible(rt, func() int64 { return 0 }, func(dst, src *int64) { *dst += *src })
		ws := make([]*Writable[int32], len(vals))
		for i, v := range vals {
			ws[i] = NewWritable(rt, v)
		}
		rt.BeginIsolation()
		DoAll(ws, func(c *Ctx, p *int32) {
			v := int64(*p)
			r.Update(c, func(s *int64) { *s += v })
		})
		rt.EndIsolation()
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		return *r.Result() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
