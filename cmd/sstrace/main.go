// Command sstrace runs one benchmark with execution tracing enabled and
// prints the delegate-utilization report and an ASCII timeline — the
// profiling view behind the paper's §5 overhead discussion (where time
// goes: executing delegated operations vs. idling on queues). The ctx0 row
// is the program context executing sets it took over at a barrier.
//
// Usage:
//
//	sstrace -app word_count -size S -delegates 8 [-timeline-width 100]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/workload"
	"repro/trace"
)

func main() {
	var (
		appFlag   = flag.String("app", "word_count", "benchmark to trace")
		sizeFlag  = flag.String("size", "S", "input size class: S, M, or L")
		delegates = flag.Int("delegates", 8, "delegate contexts")
		width     = flag.Int("timeline-width", 100, "timeline width in columns")
	)
	flag.Parse()

	size, ok := workload.ParseSize(*sizeFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "sstrace: bad -size %q\n", *sizeFlag)
		os.Exit(2)
	}
	app, ok := harness.AppByName(*appFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "sstrace: unknown app %q (have %v)\n", *appFlag, harness.AppNames())
		os.Exit(2)
	}
	inst := app.Load(size)
	fmt.Printf("tracing %s (size %s, %d delegates): %s\n", app.Name, size, *delegates, inst.Desc)
	events, st := inst.SSTraced(*delegates)
	report := trace.Analyze(events)
	fmt.Printf("phases: aggregation=%v isolation=%v reduction=%v  reduction: tasks=%d  helped: ops=%d of %d sheds=%d\n\n",
		st.Aggregation, st.Isolation, st.Reduction, report.Tasks, st.HelpedOps, st.Delegations, st.Sheds)
	report.WriteReport(os.Stdout)
	fmt.Printf("util_min: %.1f%%\n\n", 100*report.UtilMin(*delegates+1))
	trace.Timeline(os.Stdout, events, *width)
}
