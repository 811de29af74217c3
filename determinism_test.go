package prometheus

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// This file holds the central model property from paper §2: parallel
// execution with serialization sets is deterministic and indistinguishable
// from sequential execution of the same operations. We generate random
// "programs" (sequences of operations on a pool of objects, with random
// serializer choices, interleaved Calls, and multiple epochs) and assert the
// final state equals the sequential-mode run, across several runtime shapes.

// opKind enumerates the operation alphabet of a generated program.
type opKind uint8

const (
	opDelegateAdd opKind = iota // delegate: obj += k
	opDelegateMul               // delegate: obj = obj*31 + k
	opCallRead                  // program context reads (forces reclaim)
	opEpochBreak                // end + begin isolation
	numOpKinds
)

type progOp struct {
	kind opKind
	obj  int
	arg  int64
}

// genProgram builds a random program over nObjs objects.
func genProgram(r *rand.Rand, nObjs, nOps int) []progOp {
	ops := make([]progOp, nOps)
	for i := range ops {
		ops[i] = progOp{
			kind: opKind(r.Intn(int(numOpKinds))),
			obj:  r.Intn(nObjs),
			arg:  int64(r.Intn(1000)),
		}
	}
	return ops
}

// runProgram executes a generated program on a runtime built with opts and
// returns the final object states plus the values observed by opCallRead
// (observational determinism, not just final-state determinism).
func runProgram(ops []progOp, nObjs int, opts ...Option) ([]int64, []int64) {
	rt := Init(opts...)
	defer rt.Terminate()
	objs := make([]*Writable[int64], nObjs)
	for i := range objs {
		objs[i] = NewWritable(rt, int64(i))
	}
	var observed []int64
	rt.BeginIsolation()
	for _, op := range ops {
		w := objs[op.obj]
		arg := op.arg
		switch op.kind {
		case opDelegateAdd:
			w.Delegate(func(c *Ctx, p *int64) { *p += arg })
		case opDelegateMul:
			w.Delegate(func(c *Ctx, p *int64) { *p = *p*31 + arg })
		case opCallRead:
			observed = append(observed, Call(w, func(p *int64) int64 { return *p }))
		case opEpochBreak:
			rt.EndIsolation()
			rt.BeginIsolation()
		}
	}
	rt.EndIsolation()
	final := make([]int64, nObjs)
	for i, w := range objs {
		final[i] = Call(w, func(p *int64) int64 { return *p })
	}
	return final, observed
}

// tinyQueues is the shape with the smallest lanes: a 32-slot program lane.
// TestDeterminismThroughFullProgramLane drives it through the program
// context's park on a full lane.
var tinyQueues = []Option{WithDelegates(4), QueueCap(2)}

// programLane is how many delegations a delegate's program lane holds in a
// runtime built from opts (0 for Sequential).
func programLane(opts ...Option) int {
	rt := Init(opts...)
	defer rt.Terminate()
	return rt.core.ProgramLaneCap()
}

// determinismShapes is the runtime-shape matrix of the determinism suite
// (none of them Recursive: recursive_stress_test.go has those).
var determinismShapes = [][]Option{
	{Sequential()},
	{WithDelegates(1)},
	{WithDelegates(3)},
	{WithDelegates(8)},
	{WithDelegates(5)},
	{WithDelegates(2)},
	{WithDelegates(4), WithStealing(), StealAt(NoSteal)}, // first touch, no steal
	tinyQueues,
}

func TestDeterminismMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 8; trial++ {
		nObjs := 1 + r.Intn(12)
		ops := genProgram(r, nObjs, 400)
		wantFinal, wantObs := runProgram(ops, nObjs, Sequential())
		for si, shape := range determinismShapes {
			gotFinal, gotObs := runProgram(ops, nObjs, shape...)
			if !reflect.DeepEqual(gotFinal, wantFinal) {
				t.Fatalf("trial %d shape %d: final state diverged\n got %v\nwant %v", trial, si, gotFinal, wantFinal)
			}
			if !reflect.DeepEqual(gotObs, wantObs) {
				t.Fatalf("trial %d shape %d: observed reads diverged\n got %v\nwant %v", trial, si, gotObs, wantObs)
			}
		}
	}
}

// TestDeterminismThroughFullProgramLane: generated programs delegate a few
// operations in a row, far fewer than even tinyQueues' program lane holds,
// so here the first operation holds its delegate while the program context
// delegates three lanes' worth to the same object. The delegate's backlog
// settles above the lane and below what the program delegates, so the
// program context is parked on the full lane; the result is still
// Sequential's.
func TestDeterminismThroughFullProgramLane(t *testing.T) {
	lane := programLane(tinyQueues...)
	n := 3 * lane
	run := func(opts ...Option) (final int64, parked bool) {
		rt := Init(opts...)
		defer rt.Terminate()
		w := NewWritable(rt, int64(1))
		rt.BeginIsolation()
		w.Delegate(func(c *Ctx, p *int64) {
			parked = c.ID() == 0 || parkedBehind(rt, c.ID(), lane, n)
			*p = *p*31 + 7
		})
		for i := 1; i < n; i++ {
			arg := int64(i)
			w.Delegate(func(c *Ctx, p *int64) { *p = *p*31 + arg })
		}
		rt.EndIsolation()
		return Call(w, func(p *int64) int64 { return *p }), parked
	}
	want, _ := run(Sequential())
	got, parked := run(tinyQueues...)
	if !parked {
		t.Fatalf("the program context never parked on a full %d-slot program lane", lane)
	}
	if got != want {
		t.Fatalf("final state %d, Sequential's %d", got, want)
	}
}

// parkedBehind, run by an operation on delegate ctx, waits until that
// delegate's backlog stops growing above lane while fewer than n operations
// have been delegated to it: the program context is parked on its full lane.
func parkedBehind(rt *Runtime, ctx, lane, n int) bool {
	var settled uint64
	since := time.Now()
	for end := since.Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if b := rt.QueueDepths(nil)[ctx-1]; b != settled {
			settled, since = b, time.Now()
		}
		if settled > uint64(lane) && settled < uint64(n) && time.Since(since) > 10*time.Millisecond {
			return true
		}
	}
	return false
}

// TestDeterminismRepeatedRunsIdentical re-runs the same parallel program and
// requires bit-identical results (no schedule dependence).
func TestDeterminismRepeatedRunsIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	ops := genProgram(r, 8, 600)
	first, firstObs := runProgram(ops, 8, WithDelegates(6))
	for i := 0; i < 5; i++ {
		again, againObs := runProgram(ops, 8, WithDelegates(6))
		if !reflect.DeepEqual(first, again) || !reflect.DeepEqual(firstObs, againObs) {
			t.Fatalf("run %d produced different results", i)
		}
	}
}

// TestQuickDeterminism drives the same property through testing/quick's
// input generation.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64, nObjsRaw uint8) bool {
		nObjs := int(nObjsRaw%10) + 1
		r := rand.New(rand.NewSource(seed))
		ops := genProgram(r, nObjs, 150)
		want, wantObs := runProgram(ops, nObjs, Sequential())
		got, gotObs := runProgram(ops, nObjs, WithDelegates(5))
		return reflect.DeepEqual(want, got) && reflect.DeepEqual(wantObs, gotObs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedSetSerializesDisjointObjects checks the coarsening behaviour
// described in §2.1: mapping different objects to the same set is legal and
// serializes their operations with respect to each other.
func TestSharedSetSerializesDisjointObjects(t *testing.T) {
	rt := newRT(t, WithDelegates(4))
	a := NewWritableSer(rt, []int{}, NullSerializer[[]int]())
	b := NewWritableSer(rt, []int{}, NullSerializer[[]int]())
	shared := &[]int{} // trace of interleaving across both objects
	rt.BeginIsolation()
	for i := 0; i < 200; i++ {
		i := i
		// Same set 42 for both: all four appends below are totally ordered,
		// so writes to the captured shared trace are race-free.
		a.DelegateTo(42, func(c *Ctx, s *[]int) { *s = append(*s, i); *shared = append(*shared, i*2) })
		b.DelegateTo(42, func(c *Ctx, s *[]int) { *s = append(*s, i); *shared = append(*shared, i*2+1) })
	}
	rt.EndIsolation()
	if len(*shared) != 400 {
		t.Fatalf("trace length = %d, want 400", len(*shared))
	}
	for i, v := range *shared {
		if v != i {
			t.Fatalf("interleaving not program-ordered at %d: %d", i, v)
		}
	}
}
