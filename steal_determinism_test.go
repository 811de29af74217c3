package prometheus

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// This file is the determinism stress suite pinning the paper's central
// invariant — operations in one serialization set execute in program order,
// so parallel runs are bit-identical — under the feature most likely to
// perturb ordering: occupancy-aware set stealing, on the one-lane pool and
// on the Recursive lane matrix alike. The workloads mirror examples/bank and
// examples/reverse_index, skewed so that a few sets carry most of the work
// (the uneven-chain scenario stealing exists for). Every delegated operation
// records itself in per-set logs; the logs from repeated parallel runs must
// be byte-identical to each other and to the Sequential() debug-mode run.
//
// Which delegate executes a set is allowed to vary run to run (stealing is a
// placement decision); the per-set operation ORDER is not.

// stealStressOpts is the runtime shape under test: stealing with an eager
// threshold so handoffs actually fire.
func stealStressOpts(extra ...Option) []Option {
	return append([]Option{
		WithDelegates(4),
		WithPolicy(LeastLoaded),
		WithStealing(),
		StealAt(2),
	}, extra...)
}

// laneWidths is the table every non-nested determinism shape runs over: the
// same program must produce the same per-set order whether only the program
// context may delegate (one lane per delegate) or every context may
// (Recursive: the lane matrix, the quiescence barrier as reclaim).
var laneWidths = []struct {
	name string
	opts []Option
}{
	{"one-lane", nil},
	{"recursive", []Option{Recursive()}},
}

// runBankWorkload replays a deterministic transaction log against
// per-account serialization sets (the examples/bank shape) and returns the
// byte-encoded per-set operation order: each deposit appends its global op
// number to its account's log, and transfers are dependent operations that
// reclaim ownership through Call. 90% of the deposits hit 4 "hot" accounts,
// in runs of 8 on one of them, and each deposit spins for a few
// microseconds. The spin keeps a delegate observably occupied, so first
// touch spreads every epoch's sets over the whole pool, the hot sets
// included: it is the runs that back one delegate up while the sets it
// holds beside the running one sit quiescent — what a steal needs, and
// what a reclaim mid-epoch lets happen even on one CPU.
func runBankWorkload(opts ...Option) ([]byte, Stats) {
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
	hot := 0
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

// runReverseIndexWorkload builds a word->documents index sharded by word
// hash (the examples/reverse_index shape): each posting is DelegateTo'd to
// its word's shard set, so a shard's posting list is that set's operation
// order. The vocabulary is Zipf-flavored — a few words dominate — which
// concentrates load on a few shards.
func runReverseIndexWorkload(opts ...Option) ([]byte, Stats) {
	rt := Init(opts...)
	defer rt.Terminate()

	type posting struct {
		doc  uint32
		word string
	}
	const nShards = 12
	shards := make([]*Writable[[]posting], nShards)
	for i := range shards {
		shards[i] = NewWritableSer(rt, []posting{}, NullSerializer[[]posting]())
	}
	shardOf := func(word string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(word))
		return h.Sum64() % nShards
	}

	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	r := rand.New(rand.NewSource(97))
	rt.BeginIsolation()
	for doc := 0; doc < 800; doc++ {
		docID := uint32(doc)
		words := 4 + r.Intn(8)
		for k := 0; k < words; k++ {
			// Zipf-ish choice: half of all postings use the first 3 words.
			var w string
			if r.Intn(2) == 0 {
				w = vocab[r.Intn(3)]
			} else {
				w = vocab[r.Intn(len(vocab))]
			}
			p := posting{doc: docID, word: w}
			shards[shardOf(w)].DelegateTo(shardOf(w), func(c *Ctx, s *[]posting) {
				*s = append(*s, p)
			})
		}
		if doc%200 == 199 {
			rt.EndIsolation()
			rt.BeginIsolation()
		}
	}
	rt.EndIsolation()

	var buf bytes.Buffer
	for i, sh := range shards {
		sh.Call(func(s *[]posting) {
			fmt.Fprintf(&buf, "shard %d: %v\n", i, *s)
		})
	}
	return buf.Bytes(), rt.Stats()
}

func assertByteIdenticalRuns(t *testing.T, name string,
	run func(opts ...Option) ([]byte, Stats)) {
	t.Helper()
	want, _ := run(Sequential())
	// The eager shape at both lane widths, and WithStealing() alone: the
	// trigger at its constants, the configuration internal/serve runs.
	type shape struct {
		name string
		opts []Option
	}
	shapes := []shape{{"unpinned", []Option{WithDelegates(4), WithStealing()}}}
	for _, w := range laneWidths {
		shapes = append(shapes, shape{w.name, stealStressOpts(w.opts...)})
	}
	for _, width := range shapes {
		var steals, drained uint64
		const runs = 6
		for i := 0; i < runs; i++ {
			got, st := run(width.opts...)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%s run %d: per-set operation order diverged from sequential\n got: %s\nwant: %s",
					name, width.name, i, firstDiffLine(got, want), firstDiffLine(want, got))
			}
			steals += st.Steals
			drained += st.DrainedOps
		}
		if steals == 0 {
			t.Fatalf("%s/%s: skewed workload fired no steals", name, width.name)
		}
		t.Logf("%s/%s: %d runs byte-identical (%d steals, %d batch-drained ops total)",
			name, width.name, runs, steals, drained)
	}
}

// firstDiffLine trims a mismatching encoding to its first differing line so
// failures are readable.
func firstDiffLine(got, want []byte) []byte {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := range g {
		if i >= len(w) || !bytes.Equal(g[i], w[i]) {
			return g[i]
		}
	}
	return []byte("(prefix of the other)")
}

func TestBankDeterministicUnderStealing(t *testing.T) {
	assertByteIdenticalRuns(t, "bank", runBankWorkload)
}

func TestReverseIndexDeterministicUnderStealing(t *testing.T) {
	assertByteIdenticalRuns(t, "reverse_index", runReverseIndexWorkload)
}

// TestDeterminismMatrixUnderStealing reuses the random-program generator of
// determinism_test.go with stealing-enabled shapes layered on top: final
// states and observed reads must match the sequential run for arbitrary
// op/epoch interleavings, not just the two curated workloads.
func TestDeterminismMatrixUnderStealing(t *testing.T) {
	shapes := [][]Option{
		{WithDelegates(2), WithPolicy(LeastLoaded), WithStealing(), StealAt(1)},
		{WithDelegates(4), WithPolicy(LeastLoaded), WithStealing()},
		{WithDelegates(4), WithStealing()}, // the policy follows from stealing
		{WithDelegates(4), WithPolicy(LeastLoaded), WithStealing(), WithQueueCapacity(16)},
		{WithDelegates(8), WithPolicy(LeastLoaded), WithStealing(), StealAt(2), WithQueueCapacity(4)},
	}
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 6; trial++ {
		nObjs := 1 + r.Intn(10)
		ops := genProgram(r, nObjs, 400)
		wantFinal, wantObs := runProgram(ops, nObjs, Sequential())
		for si, shape := range shapes {
			gotFinal, gotObs := runProgram(ops, nObjs, shape...)
			if fmt.Sprint(gotFinal) != fmt.Sprint(wantFinal) {
				t.Fatalf("trial %d shape %d: final state diverged\n got %v\nwant %v", trial, si, gotFinal, wantFinal)
			}
			if fmt.Sprint(gotObs) != fmt.Sprint(wantObs) {
				t.Fatalf("trial %d shape %d: observed reads diverged\n got %v\nwant %v", trial, si, gotObs, wantObs)
			}
		}
	}
}
