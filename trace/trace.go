// Package trace analyzes execution traces recorded by a runtime built with
// prometheus.WithTrace: per-context utilization, per-set operation counts,
// and an ASCII timeline. It is the tooling behind the overhead analysis of
// the paper's §5 (where does time go — delegation, execution, or idling).
package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	prometheus "repro"
)

// ContextReport summarizes one execution context.
type ContextReport struct {
	Ctx       int
	Ops       int           // operations executed, pool tasks included
	Busy      time.Duration // total exec time
	Util      float64       // Busy / span
	MeanOp    time.Duration
	Sets      int // distinct serialization sets executed (pool tasks belong to none)
	LongestOp time.Duration
}

// Report is the full trace analysis.
type Report struct {
	Span   time.Duration // first event start to last event end
	Epochs int
	Ops    int
	// Tasks counts the pool tasks among Ops (RunParallel: a reduction's
	// combine steps), which arrive as exec events with Set == NoSet.
	Tasks    int
	Contexts []ContextReport
	// SetOps counts operations per serialization set, for skew analysis;
	// pool tasks are in no set and stay out of it.
	SetOps map[uint64]int
}

// Analyze builds a Report from a merged event list.
func Analyze(events []prometheus.TraceEvent) *Report {
	r := &Report{SetOps: map[uint64]int{}}
	if len(events) == 0 {
		return r
	}
	var lo, hi time.Duration
	lo = events[0].Start
	perCtx := map[int]*ContextReport{}
	perCtxSets := map[int]map[uint64]bool{}
	for _, e := range events {
		if e.Start < lo {
			lo = e.Start
		}
		if e.End > hi {
			hi = e.End
		}
		switch e.Kind {
		case prometheus.TraceEpoch:
			r.Epochs++
		case prometheus.TraceExec:
			r.Ops++
			c := perCtx[e.Ctx]
			if c == nil {
				c = &ContextReport{Ctx: e.Ctx}
				perCtx[e.Ctx] = c
				perCtxSets[e.Ctx] = map[uint64]bool{}
			}
			d := e.End - e.Start
			c.Ops++
			c.Busy += d
			if d > c.LongestOp {
				c.LongestOp = d
			}
			if e.Set == prometheus.NoSet {
				r.Tasks++
				continue
			}
			perCtxSets[e.Ctx][e.Set] = true
			r.SetOps[e.Set]++
		}
	}
	r.Span = hi - lo
	for ctx, c := range perCtx {
		c.Sets = len(perCtxSets[ctx])
		if c.Ops > 0 {
			c.MeanOp = c.Busy / time.Duration(c.Ops)
		}
		if r.Span > 0 {
			c.Util = float64(c.Busy) / float64(r.Span)
		}
		r.Contexts = append(r.Contexts, *c)
	}
	sort.Slice(r.Contexts, func(i, j int) bool { return r.Contexts[i].Ctx < r.Contexts[j].Ctx })
	return r
}

// Skew returns the ratio of the heaviest set's operation count to the mean
// — 1.0 means perfectly even sets.
func (r *Report) Skew() float64 {
	if len(r.SetOps) == 0 {
		return 0
	}
	max, total := 0, 0
	for _, n := range r.SetOps {
		total += n
		if n > max {
			max = n
		}
	}
	mean := float64(total) / float64(len(r.SetOps))
	return float64(max) / mean
}

// UtilMin returns the lowest busy share of the given number of contexts,
// 0…contexts-1: how idle the least busy one was over the span. A context
// that ran nothing counts as 0.
func (r *Report) UtilMin(contexts int) float64 {
	lo, seen := 1.0, 0
	for _, c := range r.Contexts {
		if c.Ctx < contexts {
			lo, seen = min(lo, c.Util), seen+1
		}
	}
	if seen < contexts {
		return 0
	}
	return lo
}

// WriteReport renders the analysis as a table.
func (r *Report) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "trace: span=%v epochs=%d ops=%d sets=%d skew=%.2f\n",
		r.Span.Round(time.Microsecond), r.Epochs, r.Ops, len(r.SetOps), r.Skew())
	fmt.Fprintf(w, "%-5s %8s %12s %7s %12s %12s %6s\n",
		"ctx", "ops", "busy", "util", "mean-op", "longest-op", "sets")
	for _, c := range r.Contexts {
		fmt.Fprintf(w, "%-5d %8d %12v %6.1f%% %12v %12v %6d\n",
			c.Ctx, c.Ops, c.Busy.Round(time.Microsecond), 100*c.Util,
			c.MeanOp.Round(time.Nanosecond), c.LongestOp.Round(time.Microsecond), c.Sets)
	}
}

// Timeline renders an ASCII Gantt chart: one row per context, '#' where
// the context was executing delegated work.
func Timeline(w io.Writer, events []prometheus.TraceEvent, width int) {
	if width < 10 {
		width = 80
	}
	var lo, hi time.Duration
	first := true
	maxCtx := 0
	for _, e := range events {
		if e.Kind != prometheus.TraceExec {
			continue
		}
		if first || e.Start < lo {
			lo = e.Start
		}
		if e.End > hi {
			hi = e.End
		}
		first = false
		if e.Ctx > maxCtx {
			maxCtx = e.Ctx
		}
	}
	if first || hi <= lo {
		fmt.Fprintln(w, "(no exec events)")
		return
	}
	rows := make([][]byte, maxCtx+1)
	for i := range rows {
		rows[i] = []byte(repeat('.', width))
	}
	scale := float64(width) / float64(hi-lo)
	for _, e := range events {
		if e.Kind != prometheus.TraceExec {
			continue
		}
		a := int(float64(e.Start-lo) * scale)
		b := int(float64(e.End-lo) * scale)
		if b >= width {
			b = width - 1
		}
		for i := a; i <= b; i++ {
			rows[e.Ctx][i] = '#'
		}
	}
	fmt.Fprintf(w, "timeline %v .. %v (1 col = %v)\n",
		lo.Round(time.Microsecond), hi.Round(time.Microsecond),
		((hi - lo) / time.Duration(width)).Round(time.Nanosecond))
	for ctx, row := range rows {
		fmt.Fprintf(w, "ctx%-2d |%s|\n", ctx, row)
	}
}

func repeat(b byte, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = b
	}
	return string(s)
}
