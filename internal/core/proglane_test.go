package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// The program lane: without Stealing a delegate's lane 0, the only lane the
// program context pushes into, is progLaneRings rings deep, and so are the
// inbox lanes a shed fills; every other lane is one ring.

// TestProgramLaneShapes: the size of every lane, delegates' and inbox's,
// in each runtime shape that sizes them differently.
func TestProgramLaneShapes(t *testing.T) {
	const ring, deep = 8, progLaneRings * 8
	for _, tc := range []struct {
		name            string
		cfg             Config
		progLane, inbox int
	}{
		{"plain", Config{}, deep, deep},
		{"recursive", Config{Recursive: true}, deep, ring}, // never sheds
		{"stealing", Config{Stealing: true}, ring, ring},
		{"stealing-recursive", Config{Stealing: true, Recursive: true}, ring, ring},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Delegates, tc.cfg.QueueCapacity = 2, ring
			rt := newTestRuntime(t, tc.cfg)
			if got := rt.ProgramLaneCap(); got != tc.progLane {
				t.Errorf("ProgramLaneCap() = %d, want %d", got, tc.progLane)
			}
			for _, d := range rt.delegates {
				for p, lane := range d.lanes {
					want := ring
					if p == ProgramContext {
						want = tc.progLane
					}
					if lane.Cap() != want {
						t.Errorf("delegate %d lane %d: %d slots, want %d", d.id, p, lane.Cap(), want)
					}
				}
			}
			for p, lane := range rt.prog.lanes {
				want := tc.inbox
				if p == ProgramContext {
					want = ring // nothing pushes into it
				}
				if lane.Cap() != want {
					t.Errorf("inbox lane %d: %d slots, want %d", p, lane.Cap(), want)
				}
			}
		})
	}
}

// TestProgramLaneBackpressureExact: behind a gated operation exactly one
// program lane of delegations return, and the next one parks in the
// blocking push until the gate opens. Nothing spills on the way. The
// QueueCapacity of 2 is the determinism suite's tiny-queue shape.
func TestProgramLaneBackpressureExact(t *testing.T) {
	for _, qc := range []int{0, 2} {
		t.Run(fmt.Sprintf("queue-capacity-%d", qc), func(t *testing.T) {
			rt := newTestRuntime(t, Config{Delegates: 1, QueueCapacity: qc})
			lane := rt.ProgramLaneCap()
			if want := progLaneRings * rt.cfg.QueueCapacity; lane != want {
				t.Fatalf("program lane has %d slots, want %d rings of %d", lane, progLaneRings, rt.cfg.QueueCapacity)
			}
			rt.BeginIsolation()
			release := startGated(rt, 1)
			var returned atomic.Int64
			done := make(chan struct{})
			go func() { // the program context until done closes
				defer close(done)
				for i := 0; i <= lane; i++ {
					rt.Delegate(1, func(int) {})
					returned.Add(1)
				}
			}()
			for end := time.Now().Add(10 * time.Second); returned.Load() < int64(lane) && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // room for a delegation past the lane to return
			behind := returned.Load()
			release()
			<-done
			rt.EndIsolation()
			if behind != int64(lane) {
				t.Errorf("%d delegations returned behind the gate, want exactly the lane's %d", behind, lane)
			}
			if st := rt.Stats(); st.Delegations != uint64(lane)+2 || st.Spills != 0 {
				t.Errorf("Delegations/Spills = %d/%d, want %d/0", st.Delegations, st.Spills, lane+2)
			}
		})
	}
}

// spinWork is a fixed amount of CPU work, the same on every context.
func spinWork(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// TestProgramLaneHoldsAWholeEpoch: the reverse_index shape — 2,500
// equal-cost operations, each its own set, on one delegate — fits in the
// program lane, so the program context reaches the barrier with the epoch
// queued behind it and the delegate's shed splits all of it: at least a
// quarter of the operations run on context 0, and the hand-over, up to
// half the epoch, fits in the inbox lane without spilling. Behind a
// one-ring lane the program context spends the epoch in the blocking push
// and reaches the barrier with at most a ring left to split.
func TestProgramLaneHoldsAWholeEpoch(t *testing.T) {
	const ops = 2500
	run := func(cfg Config) ([][]uint64, Stats) {
		rt := New(cfg)
		logs := make([][]uint64, ops)
		rt.BeginIsolation()
		for i := range logs {
			log := &logs[i]
			rt.Delegate(uint64(i), func(int) { *log = append(*log, spinWork(20_000)+uint64(len(*log))) })
		}
		rt.EndIsolation()
		rt.Terminate()
		return logs, rt.Stats()
	}
	want, _ := run(Config{Sequential: true})
	got, st := run(Config{Delegates: 1})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("per-set logs differ from Sequential")
	}
	if st.Delegations != ops || 4*st.HelpedOps < st.Delegations {
		t.Errorf("HelpedOps = %d of %d delegations, want at least a quarter", st.HelpedOps, st.Delegations)
	}
	if st.Spills != 0 {
		t.Errorf("Spills = %d, want 0: neither the program lane nor the inbox spills", st.Spills)
	}
}
