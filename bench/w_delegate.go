package main

import (
	"fmt"
	"time"

	prometheus "repro"
)

// Shape of one delegation cycle: a burst of delegations spread round-robin
// over a few wrappers, then one dependent Call that reclaims a wrapper. An
// unbounded stream of delegations is bimodal on a small host (the consumer
// flips between spinning and parking); burst-then-reclaim is the regime that
// repeats, and the reclaim is a latency somebody actually waits for.
const (
	cycleBurst    = 8
	cycleWrappers = 4
	traceEvery    = 16 // a traced run records spans for 1 cycle in 16
)

// Linear congruential step (Knuth's MMIX constants). Every delegated
// operation advances its cell by one step, so the value after n operations
// has a closed form and the end-of-run check costs O(log n), not a replay.
const (
	lcgA = 6364136223846793005
	lcgC = 1442695040888963407
)

// lcgJump returns the state n steps after v0.
func lcgJump(v0, n uint64) uint64 {
	// Square-and-multiply on the affine map x -> a*x + c.
	accA, accC := uint64(1), uint64(0)
	a, c := uint64(lcgA), uint64(lcgC)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			accA, accC = accA*a, accC*a+c
		}
		a, c = a*a, c*a+c
	}
	return accA*v0 + accC
}

// cell is the object a wrapper owns.
type cell struct {
	v, n uint64
	burn uint64 // sink for the filler work

	// Recursive engine: each root operation delegates one operation to this
	// child set. The closure is built once so issuing it allocates nothing.
	childSet uint64
	childFn  func(*prometheus.Ctx)
	child    *cell

	// Traced cycles: the delegate stamps when each of the wrapper's two
	// operations of the cycle ran; the program reads them after reclaiming.
	rec    *recorder
	stamps [cycleBurst / cycleWrappers][2]int64
	k      int
}

// work is the operation body: one LCG step that the checks follow, plus a
// 32-step xorshift (about 35 ns) so an operation is small but not empty.
func (x *cell) work() {
	x.v = x.v*lcgA + lcgC
	x.n++
	b := x.v | 1
	for i := 0; i < 32; i++ {
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
	}
	x.burn ^= b
}

func stepFlat(_ *prometheus.Ctx, x *cell) { x.work() }

func stepFlatTraced(_ *prometheus.Ctx, x *cell) {
	t0 := x.rec.now()
	x.work()
	x.stamps[x.k%len(x.stamps)] = [2]int64{t0, x.rec.now()}
	x.k++
}

func stepNested(c *prometheus.Ctx, x *cell) {
	x.work()
	c.Delegate(x.childSet, x.childFn)
}

// delegateWorkload builds delegate-flat (recursive false) or delegate-rec.
func delegateWorkload(recursive bool) *workload {
	w := &workload{
		name: "delegate-flat",
		why:  "bursts of 8 tiny delegations then a reclaim on the flat engine: spsc.Queue, the batch buffer and SyncContext are nearly all of the time",
	}
	if recursive {
		w.name = "delegate-rec"
		w.why = "the same cycle on the recursive engine, each operation delegating one nested operation: spsc.Lane, recRoute and the quiescence barrier"
	}
	w.setup = func(e *env) (instance, error) {
		d := newDelegateInstance(e, recursive)
		for i := 0; i < 2; i++ { // warm-up rounds, part of set-up
			if _, err := d.round(); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	return w
}

type delegateInstance struct {
	e         *env
	recursive bool
	rt        *prometheus.Runtime
	ws        []*prometheus.Writable[cell]
	seeds     []uint64 // initial value per wrapper
	childSeed []uint64 // and per child set (recursive engine)
	issued    []uint64 // delegations issued per wrapper
	cycles    int
	lat       []int64

	cur      int    // wrapper being reclaimed, read by checkFn
	mismatch uint64 // reclaims that found operations missing
	checkFn  func(*cell)
	step     func(*prometheus.Ctx, *cell)

	totalCycles uint64
	spans       *spanBuf
}

func newDelegateInstance(e *env, recursive bool) *delegateInstance {
	d := &delegateInstance{e: e, recursive: recursive, cycles: e.pick(100_000, 2_000), step: stepFlat}
	opts := []prometheus.Option{prometheus.WithDelegates(e.delegates())}
	if recursive {
		opts = append(opts, prometheus.Recursive())
		d.step = stepNested
	}
	d.rt = prometheus.Init(opts...)
	rng := splitmix(e.seed)
	for i := 0; i < cycleWrappers; i++ {
		c := cell{v: rng.next(), rec: e.rec}
		if recursive {
			// One child set per wrapper, so each child set has one producer
			// context however the wrappers are placed.
			child := &cell{v: rng.next()}
			c.child, c.childSet = child, uint64(1000+i)
			c.childFn = func(*prometheus.Ctx) { child.work() }
			d.childSeed = append(d.childSeed, child.v)
		}
		d.seeds = append(d.seeds, c.v)
		d.ws = append(d.ws, prometheus.NewWritable(d.rt, c))
	}
	d.issued = make([]uint64, cycleWrappers)
	d.lat = make([]int64, d.cycles)
	d.checkFn = func(x *cell) {
		want := d.issued[d.cur]
		if x.n != want || (x.child != nil && x.child.n != want) {
			d.mismatch++
		}
	}
	if e.rec != nil {
		d.spans = e.rec.buf()
	}
	return d
}

// opsPerCycle counts delegated operations and the call.
func (d *delegateInstance) opsPerCycle() int64 {
	if d.recursive {
		return 2*cycleBurst + 1
	}
	return cycleBurst + 1
}

func (d *delegateInstance) round() (round, error) {
	cpu0 := selfCPU()
	start := time.Now()
	d.rt.BeginIsolation()
	for c := 0; c < d.cycles; c++ {
		if d.spans != nil && c%traceEvery == 0 {
			d.tracedCycle(c)
			continue
		}
		for k := 0; k < cycleBurst; k++ {
			d.ws[k%cycleWrappers].Delegate(d.step)
		}
		d.lat[c] = d.reclaim(c)
	}
	d.rt.EndIsolation()
	r := round{wall: time.Since(start), cpu: selfCPU() - cpu0, lat: d.lat}
	r.ops = int64(d.cycles) * d.opsPerCycle()
	d.totalCycles += uint64(d.cycles)
	if d.mismatch > 0 {
		return r, fmt.Errorf("%d reclaims returned before the wrapper's delegated operations had run", d.mismatch)
	}
	return r, nil
}

// reclaim does the cycle's dependent call and returns how long it took.
func (d *delegateInstance) reclaim(c int) int64 {
	for i := range d.issued {
		d.issued[i] += cycleBurst / cycleWrappers
	}
	d.cur = c % cycleWrappers
	s := time.Now()
	d.ws[d.cur].Call(d.checkFn)
	return int64(time.Since(s))
}

// tracedCycle is a cycle with a span around every call into the runtime and,
// on the flat engine, around every delegated closure.
func (d *delegateInstance) tracedCycle(c int) {
	rec, op := d.e.rec, int64(d.totalCycles)+int64(c)
	step := d.step
	if !d.recursive {
		step = stepFlatTraced
	}
	var call [cycleBurst][2]int64
	t0 := rec.now()
	for k := 0; k < cycleBurst; k++ {
		call[k][0] = rec.now()
		d.ws[k%cycleWrappers].Delegate(step)
		call[k][1] = rec.now()
	}
	r0 := rec.now()
	d.lat[c] = d.reclaim(c)
	r1 := rec.now()
	parent := d.spans.add("cycle", t0, r1, 0, op)
	var callID [cycleBurst]int64
	for k := range call {
		callID[k] = d.spans.add("api.delegate", call[k][0], call[k][1], parent, op)
	}
	d.spans.add("api.reclaim", r0, r1, parent, op)
	if d.recursive {
		return
	}
	// Reclaim the other wrappers too (off the measured reclaim) so their
	// stamps can be read, then lay out when each operation waited and ran.
	for i, w := range d.ws {
		w.Call(func(x *cell) {
			for j, st := range x.stamps {
				k := j*cycleWrappers + i // the burst position of the wrapper's j-th operation
				// The delegation caused both; they run after it returns, on
				// the delegate, unless the delegate was quick off the mark.
				d.spans.add("api.queue_wait", min(call[k][1], st[0]), st[0], callID[k], op)
				d.spans.add("op.exec", st[0], st[1], callID[k], op)
			}
			x.k = 0
		})
	}
}

func (d *delegateInstance) close() (closing, error) {
	st := d.rt.Stats()
	var err error
	for i, w := range d.ws {
		w.Call(func(x *cell) {
			if x.n != d.issued[i] || x.v != lcgJump(d.seeds[i], x.n) {
				err = fmt.Errorf("wrapper %d: value after %d operations (want %d) is off the closed form", i, x.n, d.issued[i])
			}
			if x.child != nil {
				if x.child.n != d.issued[i] || x.child.v != lcgJump(d.childSeed[i], x.child.n) {
					err = fmt.Errorf("child set %d: value after %d operations (want %d) is off the closed form", i, x.child.n, d.issued[i])
				}
			}
		})
	}
	d.rt.Terminate()
	if err != nil {
		return closing{}, err
	}
	if want := d.totalCycles * cycleBurst; st.Delegations != want {
		return closing{}, fmt.Errorf("Stats.Delegations = %d, issued %d", st.Delegations, want)
	}
	// A traced cycle reclaims the other wrappers as well, to read their stamps.
	if st.Syncs < d.totalCycles || (d.spans == nil && st.Syncs != d.totalCycles) {
		return closing{}, fmt.Errorf("Stats.Syncs = %d, reclaims %d", st.Syncs, d.totalCycles)
	}
	return closing{peakRSSMB: selfPeakRSSMB(), core: st}, nil
}
