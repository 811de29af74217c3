package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps/histogram"
	inputs "repro/internal/workload"
)

func quickEnv(t *testing.T) *env {
	t.Helper()
	src, err := findSource()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 7, quick: true, nproc: runtime.NumCPU(), dir: t.TempDir(), src: src, log: io.Discard}
}

// Every workload runs in quick mode, passes its own checks, and reports every
// end-to-end metric exactly once with a finite value (fill enforces both).
func TestQuickUntracedRuns(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := untracedRun(w, quickEnv(t), 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

// A traced run reports every per-layer metric, whichever workload is selected,
// and leaves the span file behind.
func TestQuickTracedRun(t *testing.T) {
	e := quickEnv(t)
	w := delegateWorkload(false)
	res, err := tracedRun(w, e, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d metrics, %d declared (at most 128 allowed)", len(res.Metrics), len(perLayer))
	}
	if v := res.Metrics["core.allocs_per_op"].Value; v != 0 {
		t.Errorf("core.allocs_per_op = %v, want 0: the delegation path allocated", v)
	}
	raw, err := os.ReadFile(e.dir + "/spans-delegate-flat.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(spans), err)
	}
}

// BENCHMARK.json is the declaration the binary prints, byte for byte, so the
// names a run reports and the names the file promises are one list.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(file), declaration()) {
		t.Fatal("BENCHMARK.json differs from `bench --describe`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// The checkers must fail loudly on the faults they exist for.
func TestCheckersCatchFaults(t *testing.T) {
	t.Run("duplicate (key, seq)", func(t *testing.T) {
		c := newSeqChecker(2, 4)
		if err := c.check([][]uint64{{packAck(1, 1), packAck(1, 2)}, {packAck(2, 1)}}); err != nil {
			t.Fatalf("clean round rejected: %v", err)
		}
		if err := c.check([][]uint64{{packAck(1, 3)}, {packAck(1, 3)}}); err == nil {
			t.Fatal("two callers were acknowledged the same (key, seq) and the checker passed")
		}
	})
	t.Run("sequence going back", func(t *testing.T) {
		c := newSeqChecker(1, 4)
		if err := c.check([][]uint64{{packAck(0, 5), packAck(0, 4)}}); err == nil {
			t.Fatal("a caller saw a key's sequence fall and the checker passed")
		}
	})
	t.Run("sequence reused in a later round", func(t *testing.T) {
		c := newSeqChecker(2, 4)
		if err := c.check([][]uint64{{packAck(3, 9)}, nil}); err != nil {
			t.Fatal(err)
		}
		if err := c.check([][]uint64{nil, {packAck(3, 9)}}); err == nil {
			t.Fatal("a later round was acknowledged an old (key, seq) and the checker passed")
		}
	})
	t.Run("wrong app output", func(t *testing.T) {
		def := appDefs[4]
		if def.name != "histogram" {
			t.Fatalf("appDefs[4] is %s", def.name)
		}
		a := def.load(inputs.Small)
		want := a.seq()
		got, _ := a.ss(1)
		if err := checkAppOutput(def.name, a, got, want); err != nil {
			t.Fatalf("correct output rejected: %v", err)
		}
		got.(*histogram.Output).R[17]++
		if err := checkAppOutput(def.name, a, got, want); err == nil {
			t.Fatal("an output with one bin off passed the check")
		}
	})
	t.Run("counter body", func(t *testing.T) {
		if seq, ok := parseCounterBody([]byte("key=hot-1 seq=42\n"), "hot-1"); !ok || seq != 42 {
			t.Fatalf("got %d, %v", seq, ok)
		}
		if _, ok := parseCounterBody([]byte("key=hot-10 seq=42\n"), "hot-1"); ok {
			t.Fatal("a response for another key passed")
		}
	})
}

func TestLCGJumpMatchesIteration(t *testing.T) {
	x := cell{v: 12345}
	for n := uint64(1); n <= 1000; n++ {
		x.work()
		if want := lcgJump(12345, n); x.v != want {
			t.Fatalf("after %d steps: %d, closed form %d", n, x.v, want)
		}
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, q2, q3)
	}
}

func TestKeepRounds(t *testing.T) {
	ms := func(xs ...int) (out []time.Duration) {
		for _, x := range xs {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return out
	}
	count := func(keep []bool) (n int) {
		for _, k := range keep {
			if k {
				n++
			}
		}
		return n
	}
	if keep := keepRounds(ms(10, 10, 11, 10, 30, 10)); count(keep) != 5 || keep[4] {
		t.Fatalf("one slow canary: kept %v", keep)
	}
	// Four canaries of ten slow: the rule never drops more than a third.
	if keep := keepRounds(ms(10, 30, 10, 30, 10, 30, 10, 31, 10, 10)); count(keep) != 7 || keep[7] {
		t.Fatalf("four slow canaries of ten: kept %v", keep)
	}
}

func TestSelfTimesClipsToParent(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, ID: 1},
		{Name: "inside", Start: 10, End: 30, ID: 2, Parent: 1},
		{Name: "later", Start: 150, End: 250, ID: 3, Parent: 1}, // async: covers none of the parent
	}
	self := selfTimes(spans)
	if got := self["parent"][0]; got != 80 {
		t.Fatalf("parent self time %v, want 80", got)
	}
}
