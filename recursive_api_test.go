package prometheus

import (
	"sync/atomic"
	"testing"
)

// Public-API tests for the recursive-delegation extension.

func TestPublicRecursiveDelegation(t *testing.T) {
	rt := newRT(t, WithDelegates(4), Recursive())
	var leaves atomic.Int64
	w := NewWritable(rt, 0)
	rt.BeginIsolation()
	w.Delegate(func(c *Ctx, p *int) {
		for i := 0; i < 8; i++ {
			i := i
			c.Delegate(uint64(1000+i), func(c2 *Ctx) {
				for j := 0; j < 8; j++ {
					c2.Delegate(uint64(2000+i*8+j), func(*Ctx) { leaves.Add(1) })
				}
			})
		}
	})
	rt.EndIsolation()
	if got := leaves.Load(); got != 64 {
		t.Fatalf("leaves = %d, want 64", got)
	}
}

func TestRecursiveWithReducible(t *testing.T) {
	rt := newRT(t, WithDelegates(4), Recursive())
	sum := NewReducible(rt, func() int64 { return 0 }, func(dst, src *int64) { *dst += *src })
	w := NewWritable(rt, 0)
	rt.BeginIsolation()
	w.Delegate(func(c *Ctx, p *int) {
		for i := 1; i <= 20; i++ {
			v := int64(i)
			c.Delegate(uint64(i), func(c2 *Ctx) {
				sum.Update(c2, func(s *int64) { *s += v })
			})
		}
	})
	rt.EndIsolation()
	if got := *sum.Result(); got != 210 {
		t.Fatalf("sum = %d, want 210", got)
	}
}

func TestCtxDelegateWithoutRecursivePanics(t *testing.T) {
	rt := newRT(t, WithDelegates(2))
	caught := make(chan any, 1)
	w := NewWritable(rt, 0)
	rt.BeginIsolation()
	w.Delegate(func(c *Ctx, p *int) {
		defer func() { caught <- recover() }()
		c.Delegate(1, func(*Ctx) {})
	})
	rt.EndIsolation()
	if <-caught == nil {
		t.Fatal("Ctx.Delegate without Recursive should panic in the delegate")
	}
}

func TestRecursiveDeterministicRepeats(t *testing.T) {
	run := func() []int {
		rt := Init(WithDelegates(4), Recursive())
		defer rt.Terminate()
		out := make([]int, 16)
		w := NewWritable(rt, 0)
		rt.BeginIsolation()
		w.Delegate(func(c *Ctx, p *int) {
			for i := 0; i < 16; i++ {
				i := i
				c.Delegate(uint64(100+i), func(*Ctx) { out[i] = i * i })
			}
		})
		rt.EndIsolation()
		return out
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("length changed")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("trial %d diverged at %d", trial, i)
				}
			}
		}
	}
}

func TestWritableSyncMethod(t *testing.T) {
	rt := newRT(t, WithDelegates(2))
	w := NewWritable(rt, 0)
	rt.BeginIsolation()
	for i := 0; i < 50; i++ {
		w.Delegate(func(c *Ctx, p *int) { *p++ })
	}
	w.Sync() // explicit reclaim without a call
	rt.EndIsolation()
	if got := Call(w, func(p *int) int { return *p }); got != 50 {
		t.Fatalf("after Sync, n = %d, want 50", got)
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	rt := newRT(t, WithDelegates(2), WithTrace())
	w := NewWritable(rt, 0)
	rt.BeginIsolation()
	for i := 0; i < 10; i++ {
		w.Delegate(func(c *Ctx, p *int) { *p++ })
	}
	rt.EndIsolation()
	events := rt.TraceEvents()
	execs := 0
	for _, e := range events {
		if e.Kind == TraceExec {
			execs++
		}
	}
	if execs != 10 {
		t.Fatalf("trace recorded %d execs, want 10", execs)
	}
}
