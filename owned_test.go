package prometheus

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

func TestOwnedSingleOwnerOK(t *testing.T) {
	rt := newRT(t, WithDelegates(2))
	shared := NewOwned(rt, []int{1, 2, 3})
	w := NewWritable(rt, 0)
	var sum atomic.Int64
	rt.BeginIsolation()
	for i := 0; i < 100; i++ {
		w.Delegate(func(c *Ctx, _ *int) {
			for _, v := range *shared.Use(c) {
				sum.Add(int64(v))
			}
		})
	}
	rt.EndIsolation()
	if got := sum.Load(); got != 600 {
		t.Fatalf("sum = %d, want 600", got)
	}
}

func TestOwnedCrossOwnerDetected(t *testing.T) {
	rt := newRT(t, WithDelegates(1))
	shared := NewOwned(rt, 7)
	rt.BeginIsolation()
	_ = shared.Use(rt.ProgramCtx()) // program context claims
	if got := shared.Owner(); got != 0 {
		t.Fatalf("Owner = %d, want 0", got)
	}
	// A delegated access from a different context must be detected. The
	// panic fires inside the delegate goroutine; surface it via a channel.
	caught := make(chan any, 1)
	w := NewWritable(rt, 0)
	w.Delegate(func(c *Ctx, _ *int) {
		defer func() { caught <- recover() }()
		shared.Use(c)
	})
	rt.EndIsolation()
	r := <-caught
	e, ok := r.(*Error)
	if !ok || e.Kind != ErrPartitionViolation {
		t.Fatalf("expected partition violation, got %v", r)
	}
}

// TestOwnedWideContextIDs: context ids of 255 and up pack into the claim
// word without aliasing. A claim made on context 256 belongs to 256 — not,
// with its high bits cut off, to the program context — so a later use from
// the program context is a violation.
func TestOwnedWideContextIDs(t *testing.T) {
	rt := newRT(t, WithDelegates(256), QueueCap(16))
	set := uint64(0)
	for rt.core.ContextFor(set) != 256 {
		set++
	}
	shared := NewOwned(rt, 0)
	w := NewWritable(rt, 0)
	rt.BeginIsolation()
	ran := make(chan int, 1)
	w.DelegateTo(set, func(c *Ctx, _ *int) {
		shared.Use(c)
		ran <- c.ID()
	})
	if id := <-ran; id != 256 {
		t.Fatalf("the claim ran on context %d, want 256", id)
	}
	if got := shared.Owner(); got != 256 {
		t.Fatalf("Owner = %d, want 256", got)
	}
	func() {
		defer func() {
			e, ok := recover().(*Error)
			if !ok || e.Kind != ErrPartitionViolation {
				t.Fatalf("program-context use after a claim on context 256: got %v, want a partition violation", e)
			}
		}()
		shared.Use(rt.ProgramCtx())
	}()
	rt.EndIsolation()
}

func TestOwnedReleasedAtEpochEnd(t *testing.T) {
	rt := newRT(t, WithDelegates(2))
	shared := NewOwned(rt, 1)
	rt.BeginIsolation()
	_ = shared.Use(rt.ProgramCtx())
	rt.EndIsolation()
	if shared.Owner() != -1 {
		t.Fatal("ownership should lapse outside isolation")
	}
	// A different context may claim in the next epoch.
	w := NewWritable(rt, 0)
	ok := make(chan bool, 1)
	rt.BeginIsolation()
	w.Delegate(func(c *Ctx, _ *int) {
		defer func() { ok <- recover() == nil }()
		shared.Use(c)
	})
	rt.EndIsolation()
	if !<-ok {
		t.Fatal("fresh epoch claim should succeed")
	}
}

func TestOwnedAggregationUnrestricted(t *testing.T) {
	rt := newRT(t, WithDelegates(1))
	shared := NewOwned(rt, 5)
	*shared.Use(rt.ProgramCtx()) = 6
	if *shared.Use(rt.ProgramCtx()) != 6 {
		t.Fatal("aggregation access failed")
	}
	if shared.Owner() != -1 {
		t.Fatal("no ownership outside isolation")
	}
}

// TestOwnedFollowsMigratedSet: ownership belongs to the serialization set,
// so a set that moves between contexts inside one epoch keeps its claim —
// under WithStealing (a whole-set handoff between delegates) and in a
// helped barrier (the program context takes the set over).
func TestOwnedFollowsMigratedSet(t *testing.T) {
	t.Run("stealing", func(t *testing.T) {
		rt := newRT(t, WithDelegates(2), WithStealing(), StealAt(1))
		shared := NewOwned(rt, 0)
		x, pin := NewWritable(rt, []int{}), NewWritable(rt, 0)
		use := func(c *Ctx, ran *[]int) {
			*shared.Use(c)++
			*ran = append(*ran, c.ID())
		}
		rt.BeginIsolation()
		x.Delegate(use) // first touch, idle pool: delegate 1
		x.Sync()        // the set is quiescent there
		gate := make(chan struct{})
		pin.Delegate(func(*Ctx, *int) { <-gate }) // same tie: delegate 1 is now a steal victim
		x.Delegate(use)                           // handed off, whole, to idle delegate 2
		close(gate)
		rt.EndIsolation()
		x.Call(func(ran *[]int) {
			if len(*ran) != 2 || (*ran)[0] == (*ran)[1] {
				t.Fatalf("the set ran on contexts %v, want two different delegates", *ran)
			}
		})
		if err := rt.Err(); err != nil {
			t.Fatalf("a migrated set lost its claim: %v", err)
		}
		if st := rt.Stats(); st.Steals != 1 {
			t.Fatalf("Steals = %d, want 1", st.Steals)
		}
	})
	t.Run("helped-barrier", func(t *testing.T) {
		rt := newRT(t, WithDelegates(1))
		shared := NewOwned(rt, 0)
		x := NewWritable(rt, []int{})
		use := func(c *Ctx, ran *[]int) {
			*shared.Use(c)++
			*ran = append(*ran, c.ID())
		}
		others := make([]*Writable[int], 40)
		for i := range others {
			others[i] = NewWritable(rt, 0)
		}
		rt.BeginIsolation()
		x.Delegate(use) // runs on the delegate
		started := make(chan struct{})
		others[0].Delegate(func(c *Ctx, _ *int) { close(started); holdUntilAsked(rt, c) })
		<-started // the split is the boundary after the holding operation
		DoAll(others[1:], func(*Ctx, *int) {})
		x.Delegate(use) // the 40th chain at the split: dealt to context 0
		rt.EndIsolation()
		x.Call(func(ran *[]int) {
			if !reflect.DeepEqual(*ran, []int{1, 0}) {
				t.Fatalf("the set ran on contexts %v, want delegate 1 then the program context", *ran)
			}
		})
		if err := rt.Err(); err != nil {
			t.Fatalf("a set the program context took over lost its claim: %v", err)
		}
	})
	// The other half: a different set on a different context is still a
	// violation, wherever the claiming set went.
	t.Run("other-set-detected", func(t *testing.T) {
		rt := newRT(t, WithDelegates(2))
		shared := NewOwned(rt, 0)
		a, b := NewWritable(rt, 0), NewWritable(rt, 0)
		rt.BeginIsolation()
		a.DelegateTo(0, func(c *Ctx, _ *int) { shared.Use(c) })
		a.Sync()
		b.DelegateTo(1, func(c *Ctx, _ *int) { shared.Use(c) })
		rt.EndIsolation()
		err := rt.Err()
		var pe *PanicError
		var e *Error
		if !errors.As(err, &pe) || pe.Set != 1 || !errors.As(err, &e) || e.Kind != ErrPartitionViolation ||
			!strings.Contains(e.Msg, "owned pointer accessed by context") {
			t.Fatalf("Err() = %v, want the second set's contained partition violation", err)
		}
	})
}
