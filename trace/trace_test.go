package trace

import (
	"strings"
	"testing"
	"time"

	prometheus "repro"
)

// runTraced produces a real trace with known structure.
func runTraced(t *testing.T) []prometheus.TraceEvent {
	t.Helper()
	rt := prometheus.Init(prometheus.WithDelegates(3), prometheus.WithTrace())
	defer rt.Terminate()
	ws := make([]*prometheus.Writable[int], 12)
	for i := range ws {
		ws[i] = prometheus.NewWritable(rt, i)
	}
	rt.BeginIsolation()
	for round := 0; round < 5; round++ {
		prometheus.DoAll(ws, func(c *prometheus.Ctx, p *int) {
			time.Sleep(200 * time.Microsecond)
		})
	}
	rt.EndIsolation()
	return rt.TraceEvents()
}

func TestAnalyzeCountsOpsAndEpochs(t *testing.T) {
	events := runTraced(t)
	r := Analyze(events)
	if r.Ops != 60 {
		t.Fatalf("ops = %d, want 60", r.Ops)
	}
	if r.Epochs != 1 {
		t.Fatalf("epochs = %d, want 1", r.Epochs)
	}
	if len(r.SetOps) != 12 {
		t.Fatalf("sets = %d, want 12", len(r.SetOps))
	}
	for set, n := range r.SetOps {
		if n != 5 {
			t.Fatalf("set %d ran %d ops, want 5", set, n)
		}
	}
	if r.Skew() != 1.0 {
		t.Fatalf("skew = %f, want 1.0 for even sets", r.Skew())
	}
	if r.Span <= 0 {
		t.Fatal("span not positive")
	}
	var busy time.Duration
	for _, c := range r.Contexts {
		// Context 0 has a row whenever the program context took sets over
		// in the barrier; its operations are the same 200µs ones.
		busy += c.Busy
		if c.MeanOp < 150*time.Microsecond {
			t.Fatalf("ctx %d mean op %v, want >= ~200µs", c.Ctx, c.MeanOp)
		}
	}
	if busy < 10*time.Millisecond {
		t.Fatalf("total busy %v too small", busy)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	r := Analyze(nil)
	if r.Ops != 0 || r.Span != 0 || r.Skew() != 0 {
		t.Fatal("empty trace should analyze to zeroes")
	}
}

func TestWriteReportAndTimeline(t *testing.T) {
	events := runTraced(t)
	var sb strings.Builder
	Analyze(events).WriteReport(&sb)
	out := sb.String()
	if !strings.Contains(out, "ops=60") || !strings.Contains(out, "util") {
		t.Fatalf("report:\n%s", out)
	}
	sb.Reset()
	Timeline(&sb, events, 60)
	tl := sb.String()
	if !strings.Contains(tl, "ctx1") || !strings.Contains(tl, "#") {
		t.Fatalf("timeline:\n%s", tl)
	}
	sb.Reset()
	Timeline(&sb, nil, 40)
	if !strings.Contains(sb.String(), "no exec events") {
		t.Fatal("empty timeline not handled")
	}
}

func TestTraceDisabledReturnsNil(t *testing.T) {
	rt := prometheus.Init(prometheus.WithDelegates(1))
	defer rt.Terminate()
	if rt.TraceEvents() != nil {
		t.Fatal("trace should be nil when disabled")
	}
}

func TestSkewDetectsImbalance(t *testing.T) {
	rt := prometheus.Init(prometheus.WithDelegates(2), prometheus.WithTrace())
	defer rt.Terminate()
	w := prometheus.NewWritableSer(rt, 0, prometheus.NullSerializer[int]())
	rt.BeginIsolation()
	for i := 0; i < 9; i++ {
		w.DelegateTo(1, func(c *prometheus.Ctx, p *int) {})
	}
	w.DelegateTo(2, func(c *prometheus.Ctx, p *int) {})
	rt.EndIsolation()
	r := Analyze(rt.TraceEvents())
	// Set 1 has 9 ops, set 2 has 1: mean 5, max 9 -> skew 1.8.
	if got := r.Skew(); got < 1.7 || got > 1.9 {
		t.Fatalf("skew = %f, want 1.8", got)
	}
}

// TestAnalyzePoolTasks: a pool task (Set == NoSet) is an operation and busy
// time on its context, and stays out of every per-set figure.
func TestAnalyzePoolTasks(t *testing.T) {
	ev := func(ctx int, set uint64, start, end time.Duration) prometheus.TraceEvent {
		return prometheus.TraceEvent{Ctx: ctx, Kind: prometheus.TraceExec, Set: set, Start: start, End: end}
	}
	const us = time.Microsecond
	r := Analyze([]prometheus.TraceEvent{
		ev(1, 7, 0, 10*us), ev(1, 7, 10*us, 20*us), ev(2, 9, 0, 10*us),
		ev(2, prometheus.NoSet, 10*us, 40*us),
	})
	if r.Ops != 4 || r.Tasks != 1 {
		t.Fatalf("ops/tasks = %d/%d, want 4/1", r.Ops, r.Tasks)
	}
	if len(r.SetOps) != 2 || r.SetOps[7] != 2 || r.SetOps[9] != 1 {
		t.Fatalf("SetOps = %v, want sets 7 and 9 only", r.SetOps)
	}
	if got, want := r.Skew(), 2/1.5; got != want {
		t.Fatalf("skew = %v, want %v over the two real sets", got, want)
	}
	if c := r.Contexts[1]; c.Ctx != 2 || c.Ops != 2 || c.Busy != 40*us || c.Sets != 1 {
		t.Fatalf("context 2 = %+v, want 2 ops, 40µs busy, 1 set", c)
	}
}

// TestUtilMin: the lowest busy share over contexts 0…n-1, with a context
// that ran nothing at 0.
func TestUtilMin(t *testing.T) {
	ev := func(ctx int, start, end time.Duration) prometheus.TraceEvent {
		return prometheus.TraceEvent{Ctx: ctx, Kind: prometheus.TraceExec, Set: 1, Start: start, End: end}
	}
	const us = time.Microsecond
	r := Analyze([]prometheus.TraceEvent{ev(0, 0, 50*us), ev(1, 0, 100*us), ev(2, 0, 25*us)})
	for _, tc := range []struct {
		contexts int
		want     float64
	}{{1, 0.5}, {2, 0.5}, {3, 0.25}, {4, 0}} {
		if got := r.UtilMin(tc.contexts); got != tc.want {
			t.Errorf("UtilMin(%d) = %v, want %v", tc.contexts, got, tc.want)
		}
	}
	if got := Analyze([]prometheus.TraceEvent{ev(1, 0, 100*us)}).UtilMin(2); got != 0 {
		t.Errorf("UtilMin(2) with an idle context 0 = %v, want 0", got)
	}
	if got := Analyze(nil).UtilMin(1); got != 0 {
		t.Errorf("UtilMin(1) of an empty trace = %v, want 0", got)
	}
}
