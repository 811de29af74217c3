package prometheus

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// Barrier helping through the public API: while the program context waits
// in EndIsolation a busy delegate hands it whole serialization sets
// (internal/core/delegate.go, shed). Which context executes a set is free
// to vary; per-set order, exactly-once and the poisoning point are not.
// internal/core's shed_test.go forces the hand-over deterministically; here
// operations are slow enough that the program context reaches every barrier
// with the delegates still loaded, and Stats.HelpedOps says it did help.

// holdUntilAsked occupies the delegate running the calling operation until
// the program context, waiting in a barrier, has asked that delegate for
// work — the request word shows in SchedDump — so that the operation
// boundary after it is the split point whatever the machine's load. On
// context 0 (Sequential) it returns at once.
func holdUntilAsked(rt *Runtime, c *Ctx) {
	if c.ID() == 0 {
		return
	}
	line := fmt.Sprintf("  delegate %d: ", c.ID())
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		dump := rt.SchedDump()
		if i := strings.Index(dump, line); i >= 0 {
			if row, _, _ := strings.Cut(dump[i:], "\n"); strings.Contains(row, "shedreq=1") {
				return
			}
		}
	}
}

const (
	helpSets = 32 // per epoch; several per delegate, so a split has whole chains to deal
	helpOps  = 6  // per set per epoch
)

// runHelped delegates helpSets sets in blocks of helpOps slow operations,
// over two epochs, and returns the per-set logs. With hold, each epoch's
// first operation holds its delegate until the barrier asks it for work.
func runHelped(opts []Option, hold bool) (map[uint64][]uint64, Stats, error) {
	rt := Init(opts...)
	defer rt.Terminate()
	logs := make([]*Writable[[]uint64], helpSets)
	for s := range logs {
		logs[s] = NewWritable(rt, []uint64{})
	}
	for epoch := uint64(0); epoch < 2; epoch++ {
		rt.BeginIsolation()
		for s, w := range logs {
			for i := uint64(0); i < helpOps; i++ {
				v := epoch*helpOps + i
				first := hold && s == 0 && i == 0
				w.DelegateTo(uint64(chaosHotSet+s), func(c *Ctx, log *[]uint64) {
					if first {
						holdUntilAsked(rt, c)
					}
					time.Sleep(20 * time.Microsecond)
					*log = append(*log, v)
				})
			}
		}
		rt.EndIsolation()
	}
	out := make(map[uint64][]uint64, helpSets)
	for s, w := range logs {
		w.Call(func(log *[]uint64) { out[uint64(chaosHotSet+s)] = append([]uint64(nil), *log...) })
	}
	return out, rt.Stats(), rt.Err()
}

// helpingShapes is every row of the determinism and chaos matrices that may
// help: all but the Recursive ones.
func helpingShapes() map[string][]Option {
	shapes := map[string][]Option{}
	for i, opts := range determinismShapes {
		shapes[fmt.Sprintf("determinism-%d", i)] = opts
	}
	for _, mode := range chaosModes {
		if !strings.HasPrefix(mode.name, "rec") {
			shapes[mode.name] = mode.opts
		}
	}
	return shapes
}

// TestHelpedBarrierMatchesSequential: on every shape that may help, the
// per-set logs equal Sequential's, and — with a fault injected mid-chain
// into a set a split may deal to the program context — the faulted set
// stops at exactly the sequential prefix while its siblings are untouched.
func TestHelpedBarrierMatchesSequential(t *testing.T) {
	want, _, _ := runHelped([]Option{Sequential()}, false)
	// The last set delegated is among the last chains of whichever delegate
	// owns it; its third operation of the first epoch faults.
	const faultSet, faultPos = chaosHotSet + helpSets - 1, 3
	for name, opts := range helpingShapes() {
		t.Run(name, func(t *testing.T) {
			var cfg core.Config
			for _, o := range opts {
				o(&cfg)
			}
			// A program lane shorter than an epoch's delegations can fill
			// behind the held delegate and keep the program context in the
			// delegation loop (a held delegate would stop it there): such a
			// shape reaches the barrier with next to nothing outstanding,
			// and is not held.
			late := !cfg.Sequential && programLane(opts...) < helpSets*helpOps
			got, st, err := runHelped(opts, !late)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("per-set logs differ from Sequential")
			}
			if err != nil {
				t.Fatalf("fault-free run reported %v", err)
			}
			if !cfg.Sequential && !late && st.HelpedOps == 0 {
				t.Errorf("the program context executed nothing in two barriers over %d slow operations", 2*helpSets*helpOps)
			}
			if st.Barriers > 0 && (st.Delegations != 2*helpSets*helpOps || st.Syncs != 0) {
				t.Errorf("Delegations/Syncs = %d/%d, want %d/0", st.Delegations, st.Syncs, 2*helpSets*helpOps)
			}

			in := chaos.PanicAt(faultSet, faultPos)
			got, st, err = runHelped(append(append([]Option{}, opts...), withInjector(in)), !late)
			if cfg.Sequential {
				return // Sequential propagates panics and runs no injector
			}
			if in.Fired() != 1 || st.Panics != 1 || err == nil {
				t.Fatalf("injector fired %d times, Stats.Panics = %d, Err() = %v", in.Fired(), st.Panics, err)
			}
			for set, log := range want {
				if set == faultSet {
					// Epoch 1 stops before the fault; epoch 2 starts clean.
					log = append(append([]uint64{}, log[:faultPos-1]...), log[helpOps:]...)
				}
				if !reflect.DeepEqual(got[set], log) {
					t.Fatalf("set %d = %v, want %v", set, got[set], log)
				}
			}
		})
	}
}

// TestHelpedReducibleUsesViewZero: updates of sets the program context took
// over land in view 0, and the reduced result is the same.
func TestHelpedReducibleUsesViewZero(t *testing.T) {
	rt := newRT(t, WithDelegates(1))
	sum := NewReducible(rt, func() int { return 0 }, func(dst, src *int) { *dst += *src })
	ws := make([]*Writable[int], 40)
	for i := range ws {
		ws[i] = NewWritable(rt, i)
	}
	var inViewZero int
	rt.BeginIsolation()
	DoAll(ws, func(c *Ctx, v *int) {
		if *v == 0 {
			holdUntilAsked(rt, c) // the first operation: everything after it is split
		}
		*sum.View(c) += *v
		if c.ID() == 0 {
			inViewZero++ // context 0 is one goroutine: no race
		}
	})
	rt.EndIsolation()
	if got, want := *sum.Result(), 40*39/2; got != want {
		t.Fatalf("reduced sum = %d, want %d", got, want)
	}
	if st := rt.Stats(); st.HelpedOps == 0 || uint64(inViewZero) != st.HelpedOps {
		t.Errorf("HelpedOps = %d, %d updates landed in view 0", st.HelpedOps, inViewZero)
	}
}

// TestHelpedCallNeverSheds: a reclaim through Writable.Call mid-epoch is a
// plain wait; nothing is lent across it.
func TestHelpedCallNeverSheds(t *testing.T) {
	rt := newRT(t, WithDelegates(1))
	ws := make([]*Writable[int], 40)
	for i := range ws {
		ws[i] = NewWritable(rt, 0)
	}
	rt.BeginIsolation()
	DoAll(ws, func(_ *Ctx, v *int) {
		time.Sleep(20 * time.Microsecond)
		*v = 1
	})
	if got := Call(ws[len(ws)-1], func(v *int) int { return *v }); got != 1 {
		t.Fatalf("reclaimed value = %d, want 1", got)
	}
	if st := rt.Stats(); st.HelpedOps != 0 || st.Sheds != 0 || st.Syncs != 1 {
		t.Errorf("HelpedOps/Sheds/Syncs = %d/%d/%d after a reclaim, want 0/0/1", st.HelpedOps, st.Sheds, st.Syncs)
	}
	rt.EndIsolation()
}
