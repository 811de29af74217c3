package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
	"unsafe"

	prometheus "repro"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/spsc"
)

// This file holds the single-layer measurements of a traced run: each calls
// one module through its public functions, with a fixed amount of work, and
// reports the median of a few repetitions. None of them is an end-to-end
// metric; they say where a change to an end-to-end metric came from.

// layerReps is how many times each fixed-work measurement repeats.
const layerReps = 5

// perOp runs f, which performs n operations, layerReps times after one
// discarded repetition, and returns the median nanoseconds per operation.
func perOp(n int, f func()) float64 {
	f()
	var xs []float64
	for i := 0; i < layerReps; i++ {
		start := time.Now()
		f()
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// item is about the size of the runtime's invocation record, which is what
// the rings carry by value.
type item struct{ a, b, c, d, e, f uint64 }

func layerSpsc(e *env, out map[string]float64) {
	n := e.pick(400_000, 20_000)

	q := spsc.NewQueue[item](256)
	out["spsc.queue.pair_ns"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			q.TryPush(item{a: uint64(i)})
			q.TryPop()
		}
	})

	const batch = 64
	src, dst := make([]item, batch), make([]item, batch)
	out["spsc.queue.batch_ns_per_item"] = perOp(n, func() {
		for i := 0; i < n/batch; i++ {
			q.PushBatch(src)
			q.PopBatch(dst)
		}
	})

	// Two goroutines, bursts of 8 then a hand-back: the shape of a
	// delegation cycle, with nothing of the runtime around it.
	out["spsc.queue.xfer_ns_per_item"] = perOp(n, func() {
		fwd, back := spsc.NewQueue[item](256), spsc.NewQueue[item](256)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < n/cycleBurst; i++ {
				for k := 0; k < cycleBurst; k++ {
					fwd.Pop()
				}
				back.Push(item{})
			}
		}()
		for i := 0; i < n/cycleBurst; i++ {
			for k := 0; k < cycleBurst; k++ {
				fwd.Push(item{a: uint64(k)})
			}
			back.Pop()
		}
		<-done
	})

	lane := spsc.NewLane[item](256)
	out["spsc.lane.pair_ns"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			lane.Push(item{a: uint64(i)})
			lane.TryPop()
		}
	})

	// A ring of 8 under bursts of 64: 56 of every 64 values take the
	// unbounded spill list.
	small := spsc.NewLane[item](8)
	out["spsc.lane.spill_ns_per_item"] = perOp(n, func() {
		for i := 0; i < n/batch; i++ {
			for k := 0; k < batch; k++ {
				small.Push(item{a: uint64(k)})
			}
			for k := 0; k < batch; k++ {
				small.TryPop()
			}
		}
	})
	out["spsc.lane.spills"] = float64(small.Spills()) / float64((layerReps+1)*(n/batch))
}

// coreCell is what the trampolines below act on: the same operation body as
// the delegate workloads, reached through core's own entry points.
type coreCell struct {
	body  cell
	rt    *core.Runtime
	child *coreCell
	set   uint64
}

func coreStep(_ int, p1, _ unsafe.Pointer) { (*coreCell)(p1).body.work() }

func coreStepNested(ctx int, p1, _ unsafe.Pointer) {
	c := (*coreCell)(p1)
	c.body.work()
	c.rt.DelegateFromCall(ctx, c.child.set, coreStep, unsafe.Pointer(c.child), nil)
}

func coreNop(int, unsafe.Pointer, unsafe.Pointer) {}

// coreCycles runs burst-then-SyncSet cycles on a core.Runtime directly: the
// delegate workloads' cycle without the public wrappers, so wrapper cost is
// the difference between an api.* row and its core.* row.
func coreCycles(e *env, recursive bool) (nsPerCycle, allocsPerCycle float64) {
	n := e.pick(20_000, 1_000)
	rt := core.New(core.Config{Delegates: e.delegates(), Recursive: recursive})
	defer rt.Terminate()
	cells := make([]*coreCell, cycleWrappers)
	step := coreStep
	for i := range cells {
		cells[i] = &coreCell{rt: rt, set: uint64(i)}
		if recursive {
			cells[i].child = &coreCell{set: uint64(1000 + i)}
			step = coreStepNested
		}
	}
	cycles := func() {
		rt.BeginIsolation()
		for c := 0; c < n; c++ {
			for k := 0; k < cycleBurst; k++ {
				cl := cells[k%cycleWrappers]
				rt.DelegateCall(cl.set, step, unsafe.Pointer(cl), nil)
			}
			rt.SyncSet(uint64(c % cycleWrappers))
		}
		rt.EndIsolation()
	}
	nsPerCycle = perOp(n, cycles)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycles()
	runtime.ReadMemStats(&after)
	return nsPerCycle, float64(after.Mallocs-before.Mallocs) / float64(n)
}

func layerCore(e *env, out map[string]float64) {
	out["core.flat.cycle_ns"], out["core.flat.allocs_per_cycle"] = coreCycles(e, false)
	out["core.rec.cycle_ns"], out["core.rec.allocs_per_cycle"] = coreCycles(e, true)

	// The delegation path on its own: a stream of delegations with the
	// counters read before the barrier. The 0 allocs/op gates of alloc_test.go,
	// seen from outside the package.
	n := e.pick(200_000, 10_000)
	rt := core.New(core.Config{Delegates: e.delegates()})
	c := &coreCell{}
	rt.BeginIsolation()
	for i := 0; i < 1000; i++ { // prime the batch buffer and the ring
		rt.DelegateCall(1, coreStep, unsafe.Pointer(c), nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		rt.DelegateCall(1, coreStep, unsafe.Pointer(c), nil)
	}
	runtime.ReadMemStats(&after)
	rt.EndIsolation()
	rt.Terminate()
	out["core.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	// Closing one epoch and opening the next, with the serving tier's policy
	// (sticky least-loaded placement with stealing keeps a per-set owner
	// table), after touching a few sets or as many as serve-inproc keeps live.
	for _, sets := range []int{16, 20_016} {
		turns := e.pick(max(20, 4000/sets), 5)
		rt := core.New(core.Config{Delegates: e.delegates(), Policy: core.LeastLoaded, Stealing: true, DelegateBatch: 1})
		rt.BeginIsolation()
		var xs []float64
		for t := 0; t < turns; t++ {
			for s := 0; s < sets; s++ {
				rt.DelegateCall(uint64(s), coreNop, nil, nil)
			}
			start := time.Now()
			rt.EndIsolation()
			rt.BeginIsolation()
			xs = append(xs, float64(time.Since(start).Nanoseconds())/1e3)
		}
		rt.EndIsolation()
		rt.Terminate()
		out[fmt.Sprintf("core.epoch_turn_us.%d", sets)] = median(xs)
	}
}

func layerAPI(e *env, out map[string]float64) {
	n := e.pick(20_000, 1_000)
	d := prometheus.WithDelegates(e.delegates())

	// Writable: the delegate-flat cycle without the per-reclaim clock reads.
	wcycle := func(recursive, nested bool) float64 {
		opts := []prometheus.Option{d}
		if recursive {
			opts = append(opts, prometheus.Recursive())
		}
		rt := prometheus.Init(opts...)
		defer rt.Terminate()
		var ws []*prometheus.Writable[cell]
		for i := 0; i < cycleWrappers; i++ {
			c := cell{childSet: uint64(1000 + i)}
			child := &cell{}
			c.childFn = func(*prometheus.Ctx) { child.work() }
			ws = append(ws, prometheus.NewWritable(rt, c))
		}
		step := stepFlat
		if nested {
			step = stepNested
		}
		nop := func(*cell) {}
		return perOp(n, func() {
			rt.BeginIsolation()
			for c := 0; c < n; c++ {
				for k := 0; k < cycleBurst; k++ {
					ws[k%cycleWrappers].Delegate(step)
				}
				ws[c%cycleWrappers].Call(nop)
			}
			rt.EndIsolation()
		})
	}
	out["api.writable.cycle_ns"] = wcycle(false, false)
	out["api.ctx.nested_ns"] = (wcycle(true, true) - wcycle(true, false)) / cycleBurst

	// ReadOnly and Reducible have no reclaim; their cycle is a short epoch,
	// which for a reducible ends in the reduction that reads the result.
	{
		rt := prometheus.Init(d)
		ro := prometheus.NewReadOnly(rt, cell{})
		var sink uint64
		read := func(_ *prometheus.Ctx, c *cell) { sink += c.v }
		out["api.readonly.cycle_ns"] = perOp(n, func() {
			for c := 0; c < n; c++ {
				rt.BeginIsolation()
				for k := 0; k < cycleBurst; k++ {
					ro.Delegate(uint64(k%cycleWrappers), read)
				}
				rt.EndIsolation()
			}
		})
		red := prometheus.NewReducible(rt, func() uint64 { return 0 }, func(dst, src *uint64) { *dst += *src })
		inc := func(v *uint64) { *v++ }
		out["api.reducible.cycle_ns"] = perOp(n, func() {
			for c := 0; c < n; c++ {
				rt.BeginIsolation()
				for k := 0; k < cycleBurst; k++ {
					red.Delegate(uint64(k%cycleWrappers), inc)
				}
				rt.EndIsolation()
				sink += *red.Result()
			}
		})
		rt.Terminate()
	}

	// Sequential is the paper's debug mode: a delegation is an inline call.
	{
		rt := prometheus.Init(prometheus.Sequential())
		w := prometheus.NewWritable(rt, cell{})
		rt.BeginIsolation()
		out["api.sequential.inline_ns"] = perOp(n*cycleBurst, func() {
			for i := 0; i < n*cycleBurst; i++ {
				w.Delegate(stepFlat)
			}
		})
		rt.EndIsolation()
		rt.Terminate()
	}
}

// sessionRecord is a payload the size and shape of one encoded session.
func sessionRecord(i int) []byte {
	key := fmt.Sprintf("cold-%d", i)
	b := binary.LittleEndian.AppendUint64(nil, uint64(i))
	b = binary.LittleEndian.AppendUint64(b, uint64(i))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	return binary.LittleEndian.AppendUint32(b, 0)
}

func layerDurable(e *env, out map[string]float64) error {
	root := filepath.Join(e.dir, "layer-durable")
	defer os.RemoveAll(root)
	fresh := func(name string) (*durable.Store, error) {
		dir := filepath.Join(root, name)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		fs, err := durable.NewDirFS(dir)
		if err != nil {
			return nil, err
		}
		return durable.NewStore(fs), nil
	}
	payload := make([]byte, 64)

	// Journal append per policy. Open and Close are inside the clock: under
	// `rotation` the close is where the epoch's one fsync happens.
	appendNs := func(st *durable.Store, policy durable.FsyncPolicy, n int) (float64, error) {
		var failed error
		gen := uint64(0)
		ns := perOp(n, func() {
			gen++
			j, err := st.OpenJournal(gen, policy)
			if err != nil {
				failed = err
				return
			}
			for i := 0; i < n; i++ {
				if err := j.Append(payload); err != nil {
					failed = err
				}
			}
			if err := j.Close(); err != nil {
				failed = err
			}
		})
		return ns, failed
	}
	var err error
	n := e.pick(50_000, 2_000)
	if out["durable.append.mem_ns"], err = appendNs(durable.NewStore(durable.NewMemFS()), durable.FsyncOff, n); err != nil {
		return err
	}
	for _, p := range []durable.FsyncPolicy{durable.FsyncOff, durable.FsyncRotation} {
		st, err := fresh("append-" + p.String())
		if err != nil {
			return err
		}
		if out["durable.append."+p.String()+"_ns"], err = appendNs(st, p, n); err != nil {
			return err
		}
	}
	// `always` is the disk: one fsync per append. Each append is a sample.
	{
		st, err := fresh("append-always")
		if err != nil {
			return err
		}
		j, err := st.OpenJournal(1, durable.FsyncAlways)
		if err != nil {
			return err
		}
		var xs []float64
		for i := 0; i < e.pick(200, 20); i++ {
			start := time.Now()
			if err := j.Append(payload); err != nil {
				return err
			}
			xs = append(xs, float64(time.Since(start).Nanoseconds())/1e3)
		}
		if err := j.Close(); err != nil {
			return err
		}
		out["durable.append.always_us"] = median(xs)
	}

	// Snapshot commit and recovery, at the table size serve-inproc keeps.
	records := func(n int) [][]byte {
		rs := make([][]byte, n)
		for i := range rs {
			rs[i] = sessionRecord(i)
		}
		return rs
	}
	{
		st, err := fresh("snapshot")
		if err != nil {
			return err
		}
		rs := records(e.pick(20_016, 516))
		var ms, mbps []float64
		for gen := uint64(1); gen <= layerReps; gen++ {
			start := time.Now()
			info, err := st.CommitSnapshot(gen, rs)
			if err != nil {
				return err
			}
			d := time.Since(start)
			ms = append(ms, float64(d.Nanoseconds())/1e6)
			mbps = append(mbps, float64(info.Bytes)/1e6/d.Seconds())
		}
		out["durable.snapshot.commit_ms"] = median(ms)
		out["durable.snapshot.mb_per_s"] = median(mbps)
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"durable.recover.ms_1k", 1_000}, {"durable.recover.ms_20k", e.pick(20_016, 516)}} {
		st, err := fresh("recover")
		if err != nil {
			return err
		}
		// A snapshot of n sessions and a journal that touches each once more.
		rs := records(c.n)
		if _, err := st.CommitSnapshot(1, rs); err != nil {
			return err
		}
		j, err := st.OpenJournal(1, durable.FsyncRotation)
		if err != nil {
			return err
		}
		for _, r := range rs {
			if err := j.Append(r); err != nil {
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
		var xs []float64
		for i := 0; i < layerReps; i++ {
			start := time.Now()
			rec, err := st.Recover()
			if err != nil {
				return err
			}
			xs = append(xs, float64(time.Since(start).Nanoseconds())/1e6)
			if len(rec.SnapshotRecords) != c.n || len(rec.JournalRecords) != c.n {
				return fmt.Errorf("recover: %d snapshot and %d journal records, want %d of each",
					len(rec.SnapshotRecords), len(rec.JournalRecords), c.n)
			}
		}
		out[c.name] = median(xs)
	}
	return nil
}
