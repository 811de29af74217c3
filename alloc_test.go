package prometheus_test

// Alloc-regression tests for the delegation hot path. With Checked and
// Trace off, a steady-state delegation is required to perform zero heap
// allocations: invocation records travel by value through the SPSC rings
// (internal/spsc), and wrappers dispatch through a static per-type
// trampoline plus two payload words (core.Trampoline, tramp.go) instead of
// constructing closures. If one of these tests starts failing, something
// reintroduced a per-operation allocation — typically a closure capture, a
// parameter escaping to the heap, or a pointer-carrying queue.
//
// Warmup loops run first so one-time costs (queue fill, goroutine park/wake
// machinery, owner-table growth) are paid before measuring.

import (
	"runtime"
	"sync/atomic"
	"testing"

	prometheus "repro"
	"repro/internal/core"
)

const allocWarmup = 5000

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(500, fn); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestWritableDelegateZeroAlloc(t *testing.T) {
	rt := prometheus.Init(prometheus.WithDelegates(2))
	defer rt.Terminate()
	w := prometheus.NewWritable(rt, 0)
	rt.BeginIsolation()
	defer rt.EndIsolation()
	for i := 0; i < allocWarmup; i++ {
		w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
	}
	requireZeroAllocs(t, "Writable.Delegate", func() {
		w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
	})
}

func TestWritableDelegateToZeroAlloc(t *testing.T) {
	rt := prometheus.Init(prometheus.WithDelegates(2))
	defer rt.Terminate()
	w := prometheus.NewWritableSer(rt, 0, prometheus.NullSerializer[int]())
	rt.BeginIsolation()
	defer rt.EndIsolation()
	for i := 0; i < allocWarmup; i++ {
		w.DelegateTo(3, func(c *prometheus.Ctx, p *int) { *p++ })
	}
	requireZeroAllocs(t, "Writable.DelegateTo", func() {
		w.DelegateTo(3, func(c *prometheus.Ctx, p *int) { *p++ })
	})
}

func TestDoAllZeroAlloc(t *testing.T) {
	rt := prometheus.Init(prometheus.WithDelegates(2))
	defer rt.Terminate()
	objs := make([]*prometheus.Writable[int], 16)
	for i := range objs {
		objs[i] = prometheus.NewWritable(rt, 0)
	}
	rt.BeginIsolation()
	defer rt.EndIsolation()
	for i := 0; i < allocWarmup/16; i++ {
		prometheus.DoAll(objs, func(c *prometheus.Ctx, p *int) { *p++ })
	}
	requireZeroAllocs(t, "DoAll", func() {
		prometheus.DoAll(objs, func(c *prometheus.Ctx, p *int) { *p++ })
	})
}

func TestReducibleDelegateZeroAlloc(t *testing.T) {
	rt := prometheus.Init(prometheus.WithDelegates(2))
	defer rt.Terminate()
	r := prometheus.NewReducible(rt,
		func() int { return 0 },
		func(dst, src *int) { *dst += *src })
	rt.BeginIsolation()
	for i := 0; i < allocWarmup; i++ {
		r.Delegate(uint64(i%4), func(v *int) { *v++ })
	}
	requireZeroAllocs(t, "Reducible.Delegate", func() {
		r.Delegate(2, func(v *int) { *v++ })
	})
	rt.EndIsolation()
	if got := *r.Result(); got != allocWarmup+501 {
		// 500 measured runs + 1 AllocsPerRun warmup run.
		t.Fatalf("reduced total = %d, want %d (updates lost)", got, allocWarmup+501)
	}
}

func TestReadOnlyDelegateZeroAlloc(t *testing.T) {
	rt := prometheus.Init(prometheus.WithDelegates(2))
	defer rt.Terminate()
	r := prometheus.NewReadOnly(rt, 42)
	rt.BeginIsolation()
	defer rt.EndIsolation()
	for i := 0; i < allocWarmup; i++ {
		r.Delegate(uint64(i%4), func(c *prometheus.Ctx, p *int) { _ = *p })
	}
	requireZeroAllocs(t, "ReadOnly.Delegate", func() {
		r.Delegate(1, func(c *prometheus.Ctx, p *int) { _ = *p })
	})
}

func TestStealingDelegateZeroAlloc(t *testing.T) {
	// The stealing hot path — owner-table read, occupancy check against the
	// executed counter, position bump through the entry pointer, ring write —
	// must stay allocation-free. AllocsPerRun reads the process-wide malloc
	// counters, so this also pins the delegate-side batched drain loop
	// (running concurrently on the consumer) at zero steady-state
	// allocations.
	rt := prometheus.Init(prometheus.WithDelegates(2),
		prometheus.WithStealing(), prometheus.StealAt(1))
	defer rt.Terminate()
	w := prometheus.NewWritable(rt, 0)
	rt.BeginIsolation()
	defer rt.EndIsolation()
	for i := 0; i < allocWarmup; i++ {
		w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
	}
	requireZeroAllocs(t, "Stealing Writable.Delegate", func() {
		w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
	})
}

func TestStealRebalanceZeroAlloc(t *testing.T) {
	// Same gate with enough sets and backpressure that handoffs actually
	// fire during the measured window: a steal is a pointer-field update on
	// an existing owner-table entry, never a map insert or heap allocation.
	rt := prometheus.Init(prometheus.WithDelegates(2),
		prometheus.WithStealing(), prometheus.StealAt(2))
	defer rt.Terminate()
	objs := make([]*prometheus.Writable[int], 8)
	for i := range objs {
		objs[i] = prometheus.NewWritable(rt, 0)
	}
	rt.BeginIsolation()
	defer rt.EndIsolation()
	spin := func(c *prometheus.Ctx, p *int) {
		for j := 0; j < 64; j++ {
			*p++
		}
	}
	for i := 0; i < allocWarmup/8; i++ {
		prometheus.DoAll(objs, spin)
	}
	requireZeroAllocs(t, "stealing rebalance DoAll", func() {
		prometheus.DoAll(objs, spin)
	})
}

func TestRecursiveRootDelegateZeroAlloc(t *testing.T) {
	// In recursive mode the root wrappers route through DelegateCall into
	// the program context's ring lane on the set's owner: a value write
	// plus single-writer counters, no closure, no lane node. The program
	// producer waits for room on a full lane rather than spilling, so the
	// steady state stays allocation-free.
	rt := prometheus.Init(prometheus.WithDelegates(2), prometheus.Recursive())
	defer rt.Terminate()
	w := prometheus.NewWritable(rt, 0)
	rt.BeginIsolation()
	defer rt.EndIsolation()
	for i := 0; i < allocWarmup; i++ {
		w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
	}
	requireZeroAllocs(t, "Recursive Writable.Delegate", func() {
		w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
	})
}

func TestRecursiveNestedDelegateZeroAlloc(t *testing.T) {
	// The path Recursive exists to permit: DelegateFromCall issued from
	// inside a delegated operation, plus the delegate-side batched lane
	// drain executing the burst. Each measured run waits (via a marker
	// counter) until the whole burst has drained, so AllocsPerRun — which
	// reads process-wide malloc counters — pins the producer push, the
	// pending-bitmask publish, and the consumer drain loop together at
	// zero. The burst targets set 1001 (owner: delegate 2), not the
	// delegate running the burst, so the wait cannot deadlock and the
	// in-ring path (not the allocating spill) is what executes.
	rt := prometheus.Init(prometheus.WithDelegates(4), prometheus.Recursive())
	defer rt.Terminate()
	w := prometheus.NewWritable(rt, 0)
	rt.BeginIsolation()
	defer rt.EndIsolation()
	var done atomic.Int64
	leaf := func(c *prometheus.Ctx) { done.Add(1) }
	const burstLen = 32
	burst := func(c *prometheus.Ctx, p *int) {
		for k := 0; k < burstLen; k++ {
			c.Delegate(1001, leaf)
		}
	}
	fire := func() {
		start := done.Load()
		w.Delegate(burst)
		for done.Load() < start+burstLen {
			runtime.Gosched()
		}
	}
	for i := 0; i < allocWarmup/burstLen; i++ {
		fire()
	}
	requireZeroAllocs(t, "Recursive Ctx.Delegate burst + drain", fire)
}

func TestRecursiveStealingDelegateZeroAlloc(t *testing.T) {
	// The recursive-stealing hot path adds an owner-table lookup (the
	// uint64-specialized table — a sync.Map would box every set id above
	// 255), the O(producers) occupancy/quiescence counter reads, and the
	// lane-position stores. All of it must stay allocation-free; the set
	// ids are >= 256 on purpose so any interface boxing would show up.
	rt := prometheus.Init(prometheus.WithDelegates(2), prometheus.Recursive(),
		prometheus.WithStealing(), prometheus.StealAt(1))
	defer rt.Terminate()
	ws := make([]*prometheus.Writable[int], 4)
	for i := range ws {
		ws[i] = prometheus.NewWritable(rt, 0)
	}
	rt.BeginIsolation()
	defer rt.EndIsolation()
	for i := 0; i < allocWarmup; i++ {
		ws[i%4].DelegateTo(1000+uint64(i%4), func(c *prometheus.Ctx, p *int) { *p++ })
	}
	requireZeroAllocs(t, "Recursive stealing Writable.DelegateTo", func() {
		ws[2].DelegateTo(1002, func(c *prometheus.Ctx, p *int) { *p++ })
	})
}

// waitShapes are the two runtimes whose waits differ: one program lane per
// delegate, where a reclaim is one marker, and Recursive, where a reclaim
// and a barrier are marker rounds over every delegate until the ledger
// balances (one round when no nested work is left).
var waitShapes = []struct {
	name string
	opts []prometheus.Option
}{
	{"one-lane", []prometheus.Option{prometheus.WithDelegates(2)}},
	{"recursive", []prometheus.Option{prometheus.WithDelegates(2), prometheus.Recursive()}},
}

func TestReclaimZeroAlloc(t *testing.T) {
	// A reclaim sends a marker and waits for the delegate's exec counter to
	// reach its lane position, parked on the program context's own wake
	// channel: a delegate-then-reclaim cycle allocates nothing.
	for _, shape := range waitShapes {
		t.Run(shape.name, func(t *testing.T) {
			rt := prometheus.Init(shape.opts...)
			defer rt.Terminate()
			w := prometheus.NewWritable(rt, 0)
			rt.BeginIsolation()
			defer rt.EndIsolation()
			inc := func(c *prometheus.Ctx, p *int) { *p++ }
			read := func(p *int) {}
			cycle := func() {
				w.Delegate(inc)
				w.Call(read)
			}
			for i := 0; i < allocWarmup; i++ {
				cycle()
			}
			requireZeroAllocs(t, "Writable.Delegate + Writable.Call", cycle)
		})
	}
}

func TestBarrierZeroAlloc(t *testing.T) {
	// The EndIsolation barrier marks every delegate in one wait, its
	// positions kept in a slice the runtime preallocated.
	for _, shape := range waitShapes {
		t.Run(shape.name, func(t *testing.T) {
			rt := prometheus.Init(shape.opts...)
			defer rt.Terminate()
			objs := make([]*prometheus.Writable[int], 4)
			for i := range objs {
				objs[i] = prometheus.NewWritable(rt, 0)
			}
			inc := func(c *prometheus.Ctx, p *int) { *p++ }
			epoch := func() {
				rt.BeginIsolation()
				prometheus.DoAll(objs, inc)
				rt.EndIsolation()
			}
			for i := 0; i < allocWarmup/4; i++ {
				epoch()
			}
			requireZeroAllocs(t, "BeginIsolation + DoAll + EndIsolation", epoch)
		})
	}
}

func TestSequentialInlineZeroAlloc(t *testing.T) {
	// Debug mode runs the same trampoline inline; it must be free too.
	rt := prometheus.Init(prometheus.Sequential())
	defer rt.Terminate()
	w := prometheus.NewWritable(rt, 0)
	rt.BeginIsolation()
	defer rt.EndIsolation()
	requireZeroAllocs(t, "Sequential Writable.Delegate", func() {
		w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
	})
}

func TestFaultContainmentZeroAlloc(t *testing.T) {
	// Fault containment is compiled in unconditionally, so the fault-free
	// delegation path must stay allocation-free with it armed: the producer
	// pays one atomic nil-load of the fault state, the drain loops one per
	// execution span, and the recover() frame lives on the goroutine stack.
	// A never-firing injector is installed so the injection seam itself is
	// on the measured path too — this is the gate that keeps containment
	// free until a fault actually happens (poison state is lazily
	// allocated).
	neverFire := func(c *core.Config) {
		c.FaultInjector = func(ctx int, set uint64) {}
	}
	t.Run("flat", func(t *testing.T) {
		rt := prometheus.Init(prometheus.WithDelegates(2), prometheus.Option(neverFire))
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		defer rt.EndIsolation()
		for i := 0; i < allocWarmup; i++ {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		requireZeroAllocs(t, "Writable.Delegate with injector armed", func() {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		})
	})
	t.Run("recursive", func(t *testing.T) {
		rt := prometheus.Init(prometheus.WithDelegates(2), prometheus.Recursive(),
			prometheus.Option(neverFire))
		defer rt.Terminate()
		w := prometheus.NewWritable(rt, 0)
		rt.BeginIsolation()
		defer rt.EndIsolation()
		for i := 0; i < allocWarmup; i++ {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		}
		requireZeroAllocs(t, "Recursive Writable.Delegate with injector armed", func() {
			w.Delegate(func(c *prometheus.Ctx, p *int) { *p++ })
		})
	})
}
