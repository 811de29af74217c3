package core

import (
	"strings"
	"testing"
)

// Elastic-runtime unit tests: epoch-boundary resize semantics, scale-down
// evacuation accounting and validation of Resize targets — with and
// without Recursive, Checked mode on, so the "no lane traffic survives a
// retired delegate" assertions are armed.

func TestResizeValidation(t *testing.T) {
	rt := newTestRuntime(t, Config{
		Delegates:    2,
		MaxDelegates: 4,
		Policy:       LeastLoaded,
		Stealing:     true,
	})
	cases := []struct {
		name string
		n    int
		want string // substring of the error; empty = accepted
	}{
		{"zero", 0, "not a valid pool size"},
		{"grow-within-capacity", 4, ""},
		{"negative", -1, "not a valid pool size"},
		{"beyond-capacity", 5, "MaxDelegates"},
	}
	for _, tc := range cases {
		err := rt.Resize(tc.n)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestResizeSequentialRejected(t *testing.T) {
	rt := newTestRuntime(t, Config{Sequential: true})
	if err := rt.Resize(2); err == nil || !strings.Contains(err.Error(), "Sequential") {
		t.Fatalf("Sequential Resize error = %v, want Sequential-mode rejection", err)
	}
}

// countingWorkload delegates ops across many sets and returns per-set
// execution orders, so resize runs can be compared against fixed runs.
func countingWorkload(rt *Runtime, sets, opsPerSet int, logs [][]int) {
	for op := 0; op < opsPerSet; op++ {
		for s := 0; s < sets; s++ {
			s, op := s, op
			rt.Delegate(uint64(s+1), func(int) {
				logs[s] = append(logs[s], op)
			})
		}
	}
}

func TestResizeFlatUpDown(t *testing.T) {
	rt := newTestRuntime(t, Config{
		Delegates:    2,
		MaxDelegates: 6,
		Policy:       LeastLoaded,
		Stealing:     true,
		Checked:      true,
	})
	if got := rt.ActiveDelegates(); got != 2 {
		t.Fatalf("initial ActiveDelegates = %d, want 2", got)
	}
	if got := rt.NumContexts(); got != 7 {
		t.Fatalf("NumContexts = %d, want capacity 7", got)
	}

	const sets, opsPerSet = 12, 40
	logs := make([][]int, sets)

	// Epoch 1 at the initial size.
	rt.BeginIsolation()
	countingWorkload(rt, sets, opsPerSet, logs)
	rt.EndIsolation()

	// Scale up: applied by the next BeginIsolation.
	if err := rt.Resize(6); err != nil {
		t.Fatal(err)
	}
	if got := rt.ActiveDelegates(); got != 2 {
		t.Fatalf("resize applied before epoch boundary: ActiveDelegates = %d", got)
	}
	rt.BeginIsolation()
	if got := rt.ActiveDelegates(); got != 6 {
		t.Fatalf("after scale-up ActiveDelegates = %d, want 6", got)
	}
	countingWorkload(rt, sets, opsPerSet, logs)
	rt.EndIsolation()

	// Scale down past the starting size: sets owned by delegates 3..6 must
	// be evacuated (counted) and the retirees parked with empty queues.
	if err := rt.Resize(2); err != nil {
		t.Fatal(err)
	}
	rt.BeginIsolation()
	if got := rt.ActiveDelegates(); got != 2 {
		t.Fatalf("after scale-down ActiveDelegates = %d, want 2", got)
	}
	countingWorkload(rt, sets, opsPerSet, logs)
	rt.EndIsolation()

	st := rt.Stats()
	if st.Resizes != 2 {
		t.Fatalf("Stats.Resizes = %d, want 2", st.Resizes)
	}
	if st.ResizeEvacuatedSets == 0 {
		t.Fatal("scale-down from 6 to 2 evacuated no sets; owner table should have spread across the large pool")
	}
	for s := range logs {
		if len(logs[s]) != 3*opsPerSet {
			t.Fatalf("set %d executed %d ops, want %d", s, len(logs[s]), 3*opsPerSet)
		}
		for i, v := range logs[s] {
			if v != i%opsPerSet {
				t.Fatalf("set %d position %d = op %d: per-set program order broken across resizes", s, i, v)
			}
		}
	}
}

func TestResizeRecursiveUpDown(t *testing.T) {
	rt := newTestRuntime(t, Config{
		Delegates:    2,
		MaxDelegates: 5,
		Recursive:    true,
		Policy:       LeastLoaded,
		Stealing:     true,
		Checked:      true,
	})

	const sets, opsPerSet = 10, 30
	logs := make([][]int, sets)
	run := func() {
		rt.BeginIsolation()
		countingWorkload(rt, sets, opsPerSet, logs)
		rt.EndIsolation()
	}

	run()
	if err := rt.Resize(5); err != nil {
		t.Fatal(err)
	}
	run()
	if got := rt.ActiveDelegates(); got != 5 {
		t.Fatalf("after scale-up ActiveDelegates = %d, want 5", got)
	}
	if err := rt.Resize(1); err != nil {
		t.Fatal(err)
	}
	run()
	if got := rt.ActiveDelegates(); got != 1 {
		t.Fatalf("after scale-down ActiveDelegates = %d, want 1", got)
	}
	// Scale back up: respawned delegates must resume their frozen counters
	// (the exec-seed path) or the lane ledgers would go negative.
	if err := rt.Resize(4); err != nil {
		t.Fatal(err)
	}
	run()

	st := rt.Stats()
	if st.Resizes != 3 {
		t.Fatalf("Stats.Resizes = %d, want 3", st.Resizes)
	}
	if st.ResizeEvacuatedSets == 0 {
		t.Fatal("recursive scale-down evacuated no sets")
	}
	for s := range logs {
		if len(logs[s]) != 4*opsPerSet {
			t.Fatalf("set %d executed %d ops, want %d", s, len(logs[s]), 4*opsPerSet)
		}
		for i, v := range logs[s] {
			if v != i%opsPerSet {
				t.Fatalf("set %d position %d = op %d: per-set program order broken across resizes", s, i, v)
			}
		}
	}
}

func TestResizeTraceEvent(t *testing.T) {
	rt := newTestRuntime(t, Config{
		Delegates:    2,
		MaxDelegates: 3,
		Trace:        true,
	})
	rt.BeginIsolation()
	rt.Delegate(7, func(int) {})
	rt.EndIsolation()
	if err := rt.Resize(3); err != nil {
		t.Fatal(err)
	}
	rt.BeginIsolation()
	rt.EndIsolation()
	var found bool
	for _, ev := range rt.TraceEvents() {
		if ev.Kind == TraceResize {
			if ev.Set != 3 {
				t.Fatalf("TraceResize carries size %d, want 3", ev.Set)
			}
			if ev.Ctx != ProgramContext {
				t.Fatalf("TraceResize on ctx %d, want program context", ev.Ctx)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no TraceResize event recorded for an applied resize")
	}
}

// TestResizeDefaultCapacityIsFixedPool pins the compatibility contract: a
// config without MaxDelegates pre-allocates exactly the initial pool and
// rejects growth (capacity floor = Delegates).
func TestResizeDefaultCapacityIsFixedPool(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 3})
	if err := rt.Resize(4); err == nil || !strings.Contains(err.Error(), "MaxDelegates") {
		t.Fatalf("growth beyond default capacity: err = %v, want MaxDelegates rejection", err)
	}
	if err := rt.Resize(1); err != nil {
		t.Fatalf("shrink within default capacity rejected: %v", err)
	}
	rt.BeginIsolation()
	rt.EndIsolation()
	if got := rt.ActiveDelegates(); got != 1 {
		t.Fatalf("ActiveDelegates = %d, want 1", got)
	}
}
