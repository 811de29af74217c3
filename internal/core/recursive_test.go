package core

import (
	"strings"
	"sync/atomic"
	"testing"
)

func newRecRuntime(t *testing.T, delegates int) *Runtime {
	t.Helper()
	rt := New(Config{Delegates: delegates, Recursive: true})
	t.Cleanup(rt.Terminate)
	return rt
}

func TestRecursiveFanOut(t *testing.T) {
	// A root operation spawns children, each spawning grandchildren; the
	// barrier at EndIsolation must wait for the whole tree.
	rt := newRecRuntime(t, 4)
	var count atomic.Int64
	rt.BeginIsolation()
	rt.Delegate(1, func(ctx int) {
		for i := 0; i < 10; i++ {
			set := uint64(100 + i)
			rt.DelegateFrom(ctx, set, func(ctx2 int) {
				for j := 0; j < 10; j++ {
					rt.DelegateFrom(ctx2, set*1000+uint64(j), func(int) {
						count.Add(1)
					})
				}
			})
		}
	})
	rt.EndIsolation()
	if got := count.Load(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
}

func TestRecursivePerSetOrderPerProducer(t *testing.T) {
	// Operations one producer sends to one set must stay in order.
	rt := newRecRuntime(t, 4)
	const ops = 2000
	var result []int
	rt.BeginIsolation()
	rt.Delegate(5, func(ctx int) {
		for i := 0; i < ops; i++ {
			i := i
			rt.DelegateFrom(ctx, 77, func(int) { result = append(result, i) })
		}
	})
	rt.EndIsolation()
	if len(result) != ops {
		t.Fatalf("got %d ops, want %d", len(result), ops)
	}
	for i, v := range result {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestRecursiveDeepChain(t *testing.T) {
	// Each operation delegates the next; depth exceeds any queue capacity.
	rt := New(Config{Delegates: 3, Recursive: true, QueueCapacity: 16})
	defer rt.Terminate()
	const depth = 5000
	var hops atomic.Int64
	var step func(ctx int, remaining int)
	step = func(ctx int, remaining int) {
		hops.Add(1)
		if remaining == 0 {
			return
		}
		rt.DelegateFrom(ctx, uint64(remaining), func(next int) { step(next, remaining-1) })
	}
	rt.BeginIsolation()
	rt.Delegate(uint64(depth), func(ctx int) { step(ctx, depth-1) })
	rt.EndIsolation()
	if got := hops.Load(); got != depth {
		t.Fatalf("hops = %d, want %d", got, depth)
	}
}

func TestRecursiveTreeSum(t *testing.T) {
	// Divide-and-conquer sum over a slice: the paper's motivating use case
	// for recursive delegation. Each node delegates halves to child sets
	// and a combining op to its own set.
	rt := newRecRuntime(t, 6)
	n := 1 << 12
	data := make([]int64, n)
	var want int64
	for i := range data {
		data[i] = int64(i * 3)
		want += data[i]
	}
	var nextSet atomic.Uint64
	var total int64

	// Leaf sums are delegated recursively; each leaf then delegates its
	// accumulation into set 9999. All ops in one set execute on a single
	// owner context, so the accumulation is race-free; its order across
	// producers is nondeterministic, which is fine for a commutative sum
	// (the determinism discipline applies to order-sensitive state).
	const leafSize = 256
	rt.BeginIsolation()
	rt.Delegate(0, func(ctx int) {
		for lo := 0; lo < n; lo += leafSize {
			lo := lo
			set := nextSet.Add(1)
			rt.DelegateFrom(ctx, set, func(leafCtx int) {
				var sum int64
				for _, v := range data[lo : lo+leafSize] {
					sum += v
				}
				rt.DelegateFrom(leafCtx, 9999, func(int) { total += sum })
			})
		}
	})
	rt.EndIsolation()
	if total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

func TestRecursiveSequentialMode(t *testing.T) {
	rt := New(Config{Sequential: true, Recursive: true})
	defer rt.Terminate()
	ran := false
	rt.BeginIsolation()
	rt.Delegate(1, func(ctx int) {
		rt.DelegateFrom(ctx, 2, func(int) { ran = true })
	})
	rt.EndIsolation()
	if !ran {
		t.Fatal("sequential recursive delegation did not run")
	}
}

func TestNonRecursiveDelegateFromPanics(t *testing.T) {
	rt := New(Config{Delegates: 2})
	defer rt.Terminate()
	defer func() {
		if recover() == nil {
			t.Fatal("DelegateFrom without Recursive should panic")
		}
	}()
	rt.DelegateFrom(1, 1, func(int) {})
}

func TestRecursiveRunParallel(t *testing.T) {
	rt := newRecRuntime(t, 4)
	var sum atomic.Int64
	tasks := make([]func(int), 12)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx int) { sum.Add(int64(i)) }
	}
	rt.RunParallel(tasks)
	if got := sum.Load(); got != 66 {
		t.Fatalf("sum = %d, want 66", got)
	}
}

func TestRecursiveSyncContext(t *testing.T) {
	rt := newRecRuntime(t, 3)
	var done atomic.Bool
	rt.BeginIsolation()
	ctx := rt.Delegate(4, func(ctx int) {
		rt.DelegateFrom(ctx, 8, func(int) { done.Store(true) })
	})
	rt.SyncContext(ctx) // quiescence barrier: must cover the nested op too
	if !done.Load() {
		t.Fatal("SyncContext returned before recursive work completed")
	}
	rt.EndIsolation()
}

func TestRecursiveCheckedOneProducerPerSet(t *testing.T) {
	// Checked mode enforces the determinism discipline: a set delegated to
	// from two different contexts in one epoch is a serializer violation.
	rt := New(Config{Delegates: 2, Recursive: true, Checked: true})
	defer rt.Terminate()
	caught := make(chan any, 1)
	rt.BeginIsolation()
	rt.Delegate(1, func(ctx int) {}) // program context claims set 1
	rt.Delegate(2, func(ctx int) {   // runs on some delegate
		defer func() { caught <- recover() }()
		rt.DelegateFrom(ctx, 1, func(int) {}) // different producer, same set
	})
	rt.EndIsolation()
	if r := <-caught; r == nil {
		t.Fatal("cross-producer delegation to one set should panic in checked mode")
	}
}

// TestRecursiveCheckedSecondProducerAtQuiescentPoint: one producer per set
// per epoch holds under either placement, with or without steals. A set
// delegated from a second context panics with a serializer violation in
// Checked mode even when every operation the first context sent it has
// executed — the engine never changes a set's producer, so only the program
// can have.
func TestRecursiveCheckedSecondProducerAtQuiescentPoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"static-mod", Config{Delegates: 2}},
		{"least-loaded", stealCfg(2, noStealThreshold)},
		{"stealing", stealCfg(2, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Recursive, cfg.Checked = true, true
			rt := newTestRuntime(t, cfg)
			rt.BeginIsolation()
			rt.Delegate(5, func(int) {}) // the program context produces set 5
			rt.barrier()                 // set 5 is quiescent
			caught := make(chan any, 1)
			rt.Delegate(7, func(ctx int) {
				defer func() { caught <- recover() }()
				rt.DelegateFrom(ctx, 5, func(int) {})
			})
			rt.EndIsolation()
			r := <-caught
			if msg, _ := r.(string); !strings.Contains(msg, "serializer violation") {
				t.Fatalf("second producer at a quiescent point: recovered %v, want a serializer violation", r)
			}
		})
	}
}

func TestRecursiveCheckedResetsAcrossEpochs(t *testing.T) {
	rt := New(Config{Delegates: 2, Recursive: true, Checked: true})
	defer rt.Terminate()
	rt.BeginIsolation()
	rt.Delegate(1, func(ctx int) {})
	rt.EndIsolation()
	rt.BeginIsolation()
	var fromDelegate atomic.Bool
	rt.Delegate(7, func(ctx int) {
		// New epoch: set 1 may be claimed by a different producer.
		rt.DelegateFrom(ctx, 1, func(int) { fromDelegate.Store(true) })
	})
	rt.EndIsolation()
	if !fromDelegate.Load() {
		t.Fatal("fresh-epoch delegation did not run")
	}
}
