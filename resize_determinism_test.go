package prometheus

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Resize determinism stress (the elastic-runtime acceptance suite): a
// skewed workload resized UP and DOWN mid-run must produce per-set
// operation logs byte-identical to the same workload on a fixed-size pool
// and to the Sequential() debug run. Placement may differ — that is the
// point of resizing — but per-set program order is the model's invariant
// and survives every epoch-boundary reconfiguration. Both lane widths run
// the stress; the scale-down legs exercise the evacuation path (asserted via
// Stats.ResizeEvacuatedSets) and the skew keeps the rebalancer firing
// (asserted via Stats.Steals). CI repeats this file under -race -count=3.

// resizeSchedule maps an epoch-break ordinal to the pool size requested at
// that break (applied by the BeginIsolation that follows it).
type resizeSchedule map[int]int

// runElasticBankWorkload replays a deterministic transaction log against
// per-account serialization sets (the examples/bank shape), with a resize
// schedule layered on the epoch breaks, and returns the byte-encoded per-set
// operation order: each deposit appends its global op number to its
// account's log, and transfers are dependent operations that reclaim
// ownership through Call. 90% of the deposits hit 4 "hot" accounts, in runs
// of 8 on one of them, and each deposit spins for a few microseconds. The
// spin keeps a delegate observably occupied, so first touch spreads every
// epoch's sets over the whole pool and a scale-down has sets to evacuate.
// First touch also spreads the hot sets, so it is the runs that back one
// delegate up while the sets it holds beside the running one sit quiescent
// — what a steal needs, and what a reclaim mid-epoch lets happen even on one
// CPU. A nil schedule is the fixed-size control run.
func runElasticBankWorkload(sched resizeSchedule, opts ...Option) ([]byte, Stats) {
	rt := Init(opts...)
	defer rt.Terminate()

	type account struct {
		balance int64
		oplog   []uint32
		work    uint64 // the deposits' spin, stored so it is not optimized away
	}
	const nAccounts = 16
	const nHot = 4
	const runLen = 8
	const spin = 10000
	accounts := make([]*Writable[account], nAccounts)
	for i := range accounts {
		accounts[i] = NewWritable(rt, account{balance: 1000})
	}

	r := rand.New(rand.NewSource(41))
	breaks, hot := 0, 0
	rt.BeginIsolation()
	for op := 0; op < 6000; op++ {
		opID := uint32(op)
		if op%runLen == 0 {
			hot = r.Intn(nHot)
		}
		switch {
		case op%97 == 0:
			// Transfer: reclaim both accounts in the program context.
			from, to := r.Intn(nAccounts), r.Intn(nAccounts)
			if from == to {
				continue
			}
			amount := int64(r.Intn(40))
			ok := Call(accounts[from], func(a *account) bool {
				if a.balance < amount {
					return false
				}
				a.balance -= amount
				return true
			})
			if ok {
				accounts[to].Call(func(a *account) { a.balance += amount })
			}
		case op%53 == 0:
			// Epoch break: new partition, owner table rebuilt from scratch.
			rt.EndIsolation()
			if n, ok := sched[breaks]; ok {
				if err := rt.Resize(n); err != nil {
					panic(err)
				}
			}
			breaks++
			rt.BeginIsolation()
		default:
			idx := hot // hot accounts: 90% of deposits
			if r.Intn(10) == 9 {
				idx = nHot + r.Intn(nAccounts-nHot)
			}
			amount := int64(r.Intn(100))
			accounts[idx].Delegate(func(c *Ctx, a *account) {
				a.balance += amount
				a.oplog = append(a.oplog, opID)
				x := a.work
				for i := uint64(0); i < spin; i++ {
					x += i
				}
				a.work = x
			})
		}
	}
	rt.EndIsolation()

	var buf bytes.Buffer
	for i, w := range accounts {
		w.Call(func(a *account) {
			fmt.Fprintf(&buf, "account %d balance %d oplog %v\n", i, a.balance, a.oplog)
		})
	}
	return buf.Bytes(), rt.Stats()
}

// elasticSchedule scales 2 -> 6 early, holds, then back down to 2 and up
// again to 4 — both directions exercised twice across ~113 epoch breaks.
func elasticSchedule() resizeSchedule {
	return resizeSchedule{10: 6, 40: 2, 70: 4, 95: 2}
}

func elasticOpts(extra ...Option) []Option {
	return append([]Option{
		WithDelegates(2),
		WithMaxDelegates(6),
		WithPolicy(LeastLoaded),
		WithStealing(),
		StealAt(2),
		Checked(),
	}, extra...)
}

func TestResizeDeterminism(t *testing.T) {
	want, _ := runElasticBankWorkload(nil, Sequential())
	for _, width := range laneWidths {
		t.Run(width.name, func(t *testing.T) {
			fixed, _ := runElasticBankWorkload(nil, elasticOpts(width.opts...)...)
			if !bytes.Equal(fixed, want) {
				t.Fatalf("fixed-size control diverged from sequential:\n got: %s\nwant: %s",
					firstDiffLine(fixed, want), firstDiffLine(want, fixed))
			}
			var steals, evacs, resizes uint64
			const runs = 4
			for i := 0; i < runs; i++ {
				got, st := runElasticBankWorkload(elasticSchedule(), elasticOpts(width.opts...)...)
				if !bytes.Equal(got, fixed) {
					t.Fatalf("resized run %d diverged from fixed-size run:\n got: %s\nwant: %s",
						i, firstDiffLine(got, fixed), firstDiffLine(fixed, got))
				}
				if st.Resizes != 4 {
					t.Fatalf("run %d applied %d resizes, want 4", i, st.Resizes)
				}
				steals += st.Steals
				evacs += st.ResizeEvacuatedSets
				resizes += st.Resizes
			}
			if steals == 0 {
				t.Fatal("skewed elastic workload fired no steals")
			}
			if evacs == 0 {
				t.Fatal("scale-downs evacuated no sets")
			}
			t.Logf("%d runs byte-identical (%d resizes, %d steals, %d sets evacuated)",
				runs, resizes, steals, evacs)
		})
	}
}

// TestResizeDeterminismNested drives recursive delegation through resizes
// while every group op issues NESTED delegations — the lane-matrix case a
// scale-down must evacuate without reordering: child-set logs record
// (group op, child op) pairs and must match the fixed-size run exactly.
func TestResizeDeterminismNested(t *testing.T) {
	const nGroups = 6
	const nChildren = 2
	const rounds = 900

	run := func(sched resizeSchedule, opts ...Option) ([]byte, Stats) {
		rt := Init(opts...)
		defer rt.Terminate()
		groups := make([]*Writable[[]uint32], nGroups)
		for g := range groups {
			groups[g] = NewWritable(rt, []uint32{})
		}
		childLogs := make([][]uint32, nGroups*nChildren)
		breaks := 0
		rt.BeginIsolation()
		for op := 0; op < rounds; op++ {
			if op%71 == 70 {
				rt.EndIsolation()
				if n, ok := sched[breaks]; ok {
					if err := rt.Resize(n); err != nil {
						panic(err)
					}
				}
				breaks++
				rt.BeginIsolation()
			}
			g := op % nGroups
			if op%3 == 0 {
				g = op % 2 // skew: two groups take every third op
			}
			opID := uint32(op)
			groups[g].Delegate(func(c *Ctx, log *[]uint32) {
				*log = append(*log, opID)
				for k := 0; k < nChildren; k++ {
					child := g*nChildren + k
					c.Delegate(uint64(1000+child), func(*Ctx) {
						childLogs[child] = append(childLogs[child], opID)
					})
				}
			})
		}
		rt.EndIsolation()
		var buf bytes.Buffer
		for g, w := range groups {
			w.Call(func(log *[]uint32) { fmt.Fprintf(&buf, "group %d: %v\n", g, *log) })
		}
		for c, log := range childLogs {
			fmt.Fprintf(&buf, "child %d: %v\n", c, log)
		}
		return buf.Bytes(), rt.Stats()
	}

	recOpts := []Option{
		WithDelegates(2), WithMaxDelegates(5), Recursive(),
		WithPolicy(LeastLoaded), WithStealing(), StealAt(1), Checked(),
	}
	fixed, _ := run(nil, recOpts...)
	sched := resizeSchedule{2: 5, 6: 2, 9: 4}
	var evacs uint64
	for i := 0; i < 3; i++ {
		got, st := run(sched, recOpts...)
		if !bytes.Equal(got, fixed) {
			t.Fatalf("nested resized run %d diverged from fixed-size run:\n got: %s\nwant: %s",
				i, firstDiffLine(got, fixed), firstDiffLine(fixed, got))
		}
		if st.Resizes != 3 {
			t.Fatalf("run %d applied %d resizes, want 3", i, st.Resizes)
		}
		evacs += st.ResizeEvacuatedSets
	}
	if evacs == 0 {
		t.Fatal("nested scale-downs evacuated no sets")
	}
}
