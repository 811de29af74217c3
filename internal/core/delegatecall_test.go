package core

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// countTramp is a static trampoline for DelegateCall tests: p1 points to an
// atomic counter, p2 to an int64 increment.
func countTramp(_ int, p1, p2 unsafe.Pointer) {
	(*atomic.Int64)(p1).Add(*(*int64)(p2))
}

func TestDelegateCallExecutes(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	var sum atomic.Int64
	inc := int64(3)
	rt.BeginIsolation()
	for i := 0; i < 100; i++ {
		rt.DelegateCall(uint64(i%4), countTramp, unsafe.Pointer(&sum), unsafe.Pointer(&inc))
	}
	rt.EndIsolation()
	if got := sum.Load(); got != 300 {
		t.Fatalf("sum = %d, want 300", got)
	}
	if st := rt.Stats(); st.Delegations != 100 {
		t.Fatalf("Delegations = %d, want 100", st.Delegations)
	}
}

func TestDelegateCallSequentialInline(t *testing.T) {
	rt := newTestRuntime(t, Config{Sequential: true})
	var sum atomic.Int64
	inc := int64(1)
	rt.BeginIsolation()
	if ctx := rt.DelegateCall(7, countTramp, unsafe.Pointer(&sum), unsafe.Pointer(&inc)); ctx != ProgramContext {
		t.Fatalf("sequential DelegateCall ran on ctx %d", ctx)
	}
	rt.EndIsolation()
	if sum.Load() != 1 {
		t.Fatal("sequential DelegateCall did not execute inline")
	}
	if st := rt.Stats(); st.InlineExecs != 1 {
		t.Fatalf("InlineExecs = %d, want 1", st.InlineExecs)
	}
}

// nestedCall is nestTramp's payload: the outer operation delegates one
// countTramp operation to set 2 from whatever context runs it.
type nestedCall struct {
	rt  *Runtime
	sum *atomic.Int64
	inc *int64
}

func nestTramp(ctx int, p1, _ unsafe.Pointer) {
	c := (*nestedCall)(p1)
	c.rt.DelegateFromCall(ctx, 2, countTramp, unsafe.Pointer(c.sum), unsafe.Pointer(c.inc))
}

// TestDelegateCallTraced: tracing observes the delegation path, it does not
// reroute it. A traced DelegateCall / DelegateFromCall records one TraceExec
// per operation and builds no closure — what is left to allocate is the
// amortized growth of the event buffers and the epoch's own barrier.
func TestDelegateCallTraced(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Recursive: true, Trace: true})
	var sum atomic.Int64
	inc := int64(1)
	c := &nestedCall{rt: rt, sum: &sum, inc: &inc}
	const n, epochs = 2000, 3 // AllocsPerRun adds a warm-up run
	perEpoch := testing.AllocsPerRun(epochs-1, func() {
		rt.BeginIsolation()
		for i := 0; i < n; i++ {
			rt.DelegateCall(1, nestTramp, unsafe.Pointer(c), nil)
		}
		rt.EndIsolation()
	})
	if got := sum.Load(); got != n*epochs {
		t.Fatalf("sum = %d, want %d", got, n*epochs)
	}
	perSet := map[uint64]int{}
	for _, ev := range rt.TraceEvents() {
		if ev.Kind == TraceExec {
			perSet[ev.Set]++
		}
	}
	if perSet[1] != n*epochs || perSet[2] != n*epochs || len(perSet) != 2 {
		t.Fatalf("exec events by set = %v, want %d each for sets 1 and 2", perSet, n*epochs)
	}
	if perOp := perEpoch / (2 * n); perOp >= 0.5 {
		t.Fatalf("traced delegation allocates %.2f objects per operation, want none per operation", perOp)
	}
}

func TestContextForDoesNotAssign(t *testing.T) {
	// ContextFor is a pure query: probing a set's placement (e.g. from a
	// stats path) must not burn the LeastLoaded assignment for the epoch.
	rt := newTestRuntime(t, Config{Delegates: 4, Policy: LeastLoaded})
	rt.BeginIsolation()
	predicted := rt.ContextFor(11)
	if rt.owners.Load().len() != 0 {
		t.Fatal("ContextFor assigned an owner")
	}
	// The first delegation with unchanged queue state lands on the
	// predicted context and records the sticky owner.
	if got := rt.Delegate(11, func(int) {}); got != predicted {
		t.Fatalf("Delegate placed set on %d, ContextFor predicted %d", got, predicted)
	}
	if got := ownerOf(rt, 11); got != predicted {
		t.Fatalf("owner = %d, want %d", got, predicted)
	}
	rt.EndIsolation()
}

// startGated delegates a first operation that parks its delegate until the
// returned release function is called, and does not return before the
// operation is running (so the delegate is observably busy with exactly
// that operation in flight).
func startGated(rt *Runtime, set uint64) (release func()) {
	started := make(chan struct{})
	gate := make(chan struct{})
	rt.Delegate(set, func(int) {
		close(started)
		<-gate
	})
	<-started
	return func() { close(gate) }
}

// BenchmarkCoreDelegate compares the closure path against the trampoline
// path at the engine level, on one pinned set so the delegation stream
// stresses a single lane.
func BenchmarkCoreDelegate(b *testing.B) {
	var sink atomic.Int64
	inc := int64(1)
	run := func(b *testing.B, cfg Config, call func(rt *Runtime)) {
		rt := New(cfg)
		defer rt.Terminate()
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call(rt)
		}
		b.StopTimer()
		rt.EndIsolation()
	}
	b.Run("closure", func(b *testing.B) {
		b.ReportAllocs()
		run(b, Config{Delegates: 4}, func(rt *Runtime) {
			rt.Delegate(1, func(int) { sink.Add(1) })
		})
	})
	b.Run("trampoline", func(b *testing.B) {
		b.ReportAllocs()
		run(b, Config{Delegates: 4}, func(rt *Runtime) {
			rt.DelegateCall(1, countTramp, unsafe.Pointer(&sink), unsafe.Pointer(&inc))
		})
	})
}

// TestInvocationFillsRingSlot: spsc stores a record beside an 8-byte
// sequence stamp, and the consumer's readability check is meant to ride the
// cache line that delivers the record — so a slot must stay 64 bytes.
func TestInvocationFillsRingSlot(t *testing.T) {
	if got := unsafe.Sizeof(Invocation{}); got != 56 {
		t.Fatalf("Invocation is %d bytes, want 56 (a 64-byte ring slot with its stamp)", got)
	}
}
