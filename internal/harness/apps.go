package harness

import (
	"fmt"

	prometheus "repro"
	"repro/internal/apps/barneshut"
	"repro/internal/apps/blackscholes"
	"repro/internal/apps/dedup"
	"repro/internal/apps/freqmine"
	"repro/internal/apps/histogram"
	"repro/internal/apps/kmeans"
	"repro/internal/apps/reverseindex"
	"repro/internal/apps/wordcount"
	"repro/internal/workload"
)

// variant is a named alternative SS formulation (Instance.Variants).
type variant[I, O any] struct {
	name string
	run  func(in *I, delegates int) (*O, prometheus.Stats)
}

// app adapts one app package's typed functions — every package exposes the
// same five — into a registry entry that hides the input and output types.
func app[I, O any](name string, desc func(*I) string, load func(workload.SizeClass) *I,
	seq func(*I) *O, cp func(*I, int) *O,
	ssOn func(*prometheus.Runtime, *I) (*O, prometheus.Stats), variants ...variant[I, O]) App {
	return App{Name: name, Load: func(size workload.SizeClass) *Instance {
		in := load(size)
		ss := func(delegates int, opts ...prometheus.Option) ([]prometheus.TraceEvent, prometheus.Stats) {
			rt := prometheus.Init(append([]prometheus.Option{prometheus.WithDelegates(delegates)}, opts...)...)
			defer rt.Terminate()
			_, st := ssOn(rt, in)
			return rt.TraceEvents(), st
		}
		inst := &Instance{
			Desc: desc(in),
			Seq:  func() { seq(in) },
			CP:   func(workers int) { cp(in, workers) },
			SS: func(delegates int, opts ...prometheus.Option) prometheus.Stats {
				_, st := ss(delegates, opts...)
				return st
			},
			SSTraced: func(delegates int) ([]prometheus.TraceEvent, prometheus.Stats) {
				return ss(delegates, prometheus.WithTrace())
			},
			Variants: map[string]func(int) prometheus.Stats{},
		}
		for _, v := range variants {
			inst.Variants[v.name] = func(delegates int) prometheus.Stats {
				_, st := v.run(in, delegates)
				return st
			}
		}
		return inst
	}}
}

// Apps is the benchmark registry, mirroring the rows of the paper's
// Table 2; each entry's comment names the suite the program comes from.
var Apps = []App{
	// Lonestar: N-body simulation
	app("barneshut", func(in *barneshut.Input) string {
		return fmt.Sprintf("%d bodies, %d steps", len(in.Bodies), in.Steps)
	}, barneshut.Load, barneshut.RunSeq, barneshut.RunCP, barneshut.RunSSOn),
	// PARSEC: Financial analysis
	app("blackscholes", func(in *blackscholes.Input) string {
		return fmt.Sprintf("%d options", len(in.Options))
	}, blackscholes.Load, blackscholes.RunSeq, blackscholes.RunCP, blackscholes.RunSSOn),
	// PARSEC: Enterprise storage
	app("dedup", func(in *dedup.Input) string {
		return fmt.Sprintf("%d MB stream", len(in.Data)>>20)
	}, dedup.Load, dedup.RunSeq, dedup.RunCP, dedup.RunSSOn),
	// PARSEC: Data mining
	app("freqmine", func(in *freqmine.Input) string {
		return fmt.Sprintf("%d transactions", len(in.Txns))
	}, freqmine.Load, freqmine.RunSeq, freqmine.RunCP, freqmine.RunSSOn),
	// Phoenix: Image analysis
	app("histogram", func(in *histogram.Input) string {
		return fmt.Sprintf("%d MB bitmap", len(in.Pixels)>>20)
	}, histogram.Load, histogram.RunSeq, histogram.RunCP, histogram.RunSSOn),
	// NU-MineBench: Data mining
	app("kmeans", func(in *kmeans.Input) string {
		return fmt.Sprintf("%d points, %d clusters", len(in.Points), in.Clusters)
	}, kmeans.Load, kmeans.RunSeq, kmeans.RunCP, kmeans.RunSSOn,
		variant[kmeans.Input, kmeans.Output]{"naive", kmeans.RunSSNaive}),
	// Phoenix: HTML analysis
	app("reverse_index", func(in *reverseindex.Input) string { return in.FS.Stats() },
		reverseindex.Load, reverseindex.RunSeq, reverseindex.RunCP, reverseindex.RunSSOn),
	// Phoenix: Text processing
	app("word_count", func(in *wordcount.Input) string {
		return fmt.Sprintf("%d MB text", len(in.Text)>>20)
	}, wordcount.Load, wordcount.RunSeq, wordcount.RunCP, wordcount.RunSSOn),
}
