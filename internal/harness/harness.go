// Package harness is the registry of the paper's eight evaluation programs
// (Table 2): each App loads an input once and hands back runners for its
// sequential, conventional-parallel and serialization-sets implementations.
// The repository-root bench_test.go (BenchmarkFig4/5a/5b/6/Ablation) and
// cmd/sstrace drive the programs through it; HarmonicMean is Figure 4's
// aggregate, which bench/ reports as apps.hmean_speedup.
package harness

import (
	prometheus "repro"
	"repro/internal/workload"
)

// Instance is one loaded benchmark input with runners for each
// implementation. Load once, run many times.
type Instance struct {
	// Desc describes the generated input (sizes, counts).
	Desc string
	// Seq runs the sequential reference implementation.
	Seq func()
	// CP runs the conventional-parallel implementation with the given
	// number of worker threads.
	CP func(workers int)
	// SS runs the serialization-sets implementation with the given number
	// of delegate contexts and any extra runtime options (the policy and
	// queue-capacity ablations), and returns the runtime stats.
	SS func(delegates int, opts ...prometheus.Option) prometheus.Stats
	// Variants holds named alternative SS formulations used by the
	// ablation benchmarks (e.g. kmeans "naive").
	Variants map[string]func(delegates int) prometheus.Stats
	// SSTraced runs SS with execution tracing and returns the trace
	// (cmd/sstrace).
	SSTraced func(delegates int) ([]prometheus.TraceEvent, prometheus.Stats)
}

// App is a registered benchmark.
type App struct {
	Name string
	Load func(size workload.SizeClass) *Instance
}

// HarmonicMean computes the harmonic mean of speedups, the aggregate the
// paper reports in Figure 4's final column.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// AppNames lists the registered benchmark names in registry order.
func AppNames() []string {
	names := make([]string, len(Apps))
	for i, a := range Apps {
		names[i] = a.Name
	}
	return names
}

// AppByName finds a registered benchmark.
func AppByName(name string) (App, bool) {
	for _, a := range Apps {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}
