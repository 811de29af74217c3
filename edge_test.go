package prometheus

import (
	"testing"
	"testing/quick"
)

// Edge-case and property tests for the public API surface.

func TestMix64Bijective(t *testing.T) {
	// SplitMix64 finalizer is a bijection; distinct inputs never collide.
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix64(a) != Mix64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSetDeterministic(t *testing.T) {
	f := func(s string) bool { return StringSet(s) == StringSet(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if StringSet("") == StringSet("a") {
		t.Fatal("trivial collision")
	}
}

func TestDoAllEmpty(t *testing.T) {
	rt := newRT(t, WithDelegates(1))
	rt.BeginIsolation()
	DoAll[int](nil, func(c *Ctx, p *int) { t.Fatal("should not run") })
	rt.EndIsolation()
}

func TestCallROAllowsReadDuringAggregation(t *testing.T) {
	rt := newRT(t, WithDelegates(1), Checked())
	w := NewWritable(rt, 42)
	var got int
	w.CallRO(func(p *int) { got = *p }) // aggregation: any use fine
	if got != 42 {
		t.Fatal("CallRO read failed")
	}
	w.Call(func(p *int) { *p = 43 }) // also fine in aggregation
}

func TestWritableInstanceNumbersUnique(t *testing.T) {
	rt := newRT(t, WithDelegates(1))
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		w := NewWritable(rt, i)
		if seen[w.Instance()] {
			t.Fatalf("duplicate instance %d", w.Instance())
		}
		seen[w.Instance()] = true
	}
}

func TestManyEpochsStress(t *testing.T) {
	rt := newRT(t, WithDelegates(3))
	w := NewWritable(rt, 0)
	for e := 0; e < 200; e++ {
		rt.BeginIsolation()
		for i := 0; i < 10; i++ {
			w.Delegate(func(c *Ctx, p *int) { *p++ })
		}
		rt.EndIsolation()
	}
	if got := Call(w, func(p *int) int { return *p }); got != 2000 {
		t.Fatalf("n = %d, want 2000", got)
	}
	if rt.Stats().Epochs != 200 {
		t.Fatalf("epochs = %d", rt.Stats().Epochs)
	}
}

func TestManyWritablesAcrossDelegates(t *testing.T) {
	rt := newRT(t, WithDelegates(7))
	const objs = 500
	ws := make([]*Writable[int], objs)
	for i := range ws {
		ws[i] = NewWritable(rt, 0)
	}
	rt.BeginIsolation()
	for round := 0; round < 20; round++ {
		for _, w := range ws {
			w.Delegate(func(c *Ctx, p *int) { *p++ })
		}
	}
	rt.EndIsolation()
	for i, w := range ws {
		if got := Call(w, func(p *int) int { return *p }); got != 20 {
			t.Fatalf("obj %d = %d, want 20", i, got)
		}
	}
}

func TestReadOnlyCallRNoCopy(t *testing.T) {
	rt := newRT(t, WithDelegates(1))
	type big struct{ data [1024]int }
	r := NewReadOnly(rt, big{})
	p1 := r.Get()
	p2 := r.Get()
	if p1 != p2 {
		t.Fatal("Get should return a stable pointer")
	}
	if got := CallR(r, func(b *big) int { return len(b.data) }); got != 1024 {
		t.Fatal("CallR wrong")
	}
}

func TestZeroDelegatesClampsToOne(t *testing.T) {
	rt := newRT(t, WithDelegates(0))
	if rt.NumDelegates() < 1 {
		t.Fatalf("delegates = %d, want >= 1", rt.NumDelegates())
	}
}
