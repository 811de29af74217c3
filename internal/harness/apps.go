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

// attachSSHooks fills Instance.SS, SSOpt and SSTraced from a single
// run-on-runtime closure, the shape every app exposes as RunSSOn.
func attachSSHooks(inst *Instance, runOn func(rt *prometheus.Runtime) prometheus.Stats) {
	inst.SS = func(delegates int) prometheus.Stats {
		rt := prometheus.Init(prometheus.WithDelegates(delegates))
		defer rt.Terminate()
		return runOn(rt)
	}
	inst.SSOpt = func(delegates int, opts ...prometheus.Option) prometheus.Stats {
		all := append([]prometheus.Option{prometheus.WithDelegates(delegates)}, opts...)
		rt := prometheus.Init(all...)
		defer rt.Terminate()
		return runOn(rt)
	}
	inst.SSTraced = func(delegates int) ([]prometheus.TraceEvent, prometheus.Stats) {
		rt := prometheus.Init(prometheus.WithDelegates(delegates), prometheus.WithTrace())
		defer rt.Terminate()
		st := runOn(rt)
		return rt.TraceEvents(), st
	}
}

// Apps is the benchmark registry, mirroring the rows of the paper's
// Table 2; each entry's comment names the suite the program comes from.
var Apps = []App{
	{
		Name: "barneshut", // Lonestar: N-body simulation
		Load: func(size workload.SizeClass) *Instance {
			in := barneshut.Load(size)
			inst := &Instance{
				Desc: fmt.Sprintf("%d bodies, %d steps", len(in.Bodies), in.Steps),
				Seq:  func() { barneshut.RunSeq(in) },
				CP:   func(w int) { barneshut.RunCP(in, w) },
			}
			attachSSHooks(inst, func(rt *prometheus.Runtime) prometheus.Stats {
				_, st := barneshut.RunSSOn(rt, in)
				return st
			})
			return inst
		},
	},
	{
		Name: "blackscholes", // PARSEC: Financial analysis
		Load: func(size workload.SizeClass) *Instance {
			in := blackscholes.Load(size)
			inst := &Instance{
				Desc: fmt.Sprintf("%d options", len(in.Options)),
				Seq:  func() { blackscholes.RunSeq(in) },
				CP:   func(w int) { blackscholes.RunCP(in, w) },
			}
			attachSSHooks(inst, func(rt *prometheus.Runtime) prometheus.Stats {
				_, st := blackscholes.RunSSOn(rt, in)
				return st
			})
			return inst
		},
	},
	{
		Name: "dedup", // PARSEC: Enterprise storage
		Load: func(size workload.SizeClass) *Instance {
			in := dedup.Load(size)
			inst := &Instance{
				Desc: fmt.Sprintf("%d MB stream", len(in.Data)>>20),
				Seq:  func() { dedup.RunSeq(in) },
				CP:   func(w int) { dedup.RunCP(in, w) },
			}
			attachSSHooks(inst, func(rt *prometheus.Runtime) prometheus.Stats {
				_, st := dedup.RunSSOn(rt, in)
				return st
			})
			return inst
		},
	},
	{
		Name: "freqmine", // PARSEC: Data mining
		Load: func(size workload.SizeClass) *Instance {
			in := freqmine.Load(size)
			inst := &Instance{
				Desc: fmt.Sprintf("%d transactions", len(in.Txns)),
				Seq:  func() { freqmine.RunSeq(in) },
				CP:   func(w int) { freqmine.RunCP(in, w) },
			}
			attachSSHooks(inst, func(rt *prometheus.Runtime) prometheus.Stats {
				_, st := freqmine.RunSSOn(rt, in)
				return st
			})
			return inst
		},
	},
	{
		Name: "histogram", // Phoenix: Image analysis
		Load: func(size workload.SizeClass) *Instance {
			in := histogram.Load(size)
			inst := &Instance{
				Desc: fmt.Sprintf("%d MB bitmap", len(in.Pixels)>>20),
				Seq:  func() { histogram.RunSeq(in) },
				CP:   func(w int) { histogram.RunCP(in, w) },
			}
			attachSSHooks(inst, func(rt *prometheus.Runtime) prometheus.Stats {
				_, st := histogram.RunSSOn(rt, in)
				return st
			})
			return inst
		},
	},
	{
		Name: "kmeans", // NU-MineBench: Data mining
		Load: func(size workload.SizeClass) *Instance {
			in := kmeans.Load(size)
			inst := &Instance{
				Desc: fmt.Sprintf("%d points, %d clusters", len(in.Points), in.Clusters),
				Seq:  func() { kmeans.RunSeq(in) },
				CP:   func(w int) { kmeans.RunCP(in, w) },
				Variants: map[string]func(int) prometheus.Stats{
					"naive": func(d int) prometheus.Stats {
						_, st := kmeans.RunSSNaive(in, d)
						return st
					},
				},
			}
			attachSSHooks(inst, func(rt *prometheus.Runtime) prometheus.Stats {
				_, st := kmeans.RunSSOn(rt, in)
				return st
			})
			return inst
		},
	},
	{
		Name: "reverse_index", // Phoenix: HTML analysis
		Load: func(size workload.SizeClass) *Instance {
			in := reverseindex.Load(size)
			inst := &Instance{
				Desc: in.FS.Stats(),
				Seq:  func() { reverseindex.RunSeq(in) },
				CP:   func(w int) { reverseindex.RunCP(in, w) },
			}
			attachSSHooks(inst, func(rt *prometheus.Runtime) prometheus.Stats {
				_, st := reverseindex.RunSSOn(rt, in)
				return st
			})
			return inst
		},
	},
	{
		Name: "word_count", // Phoenix: Text processing
		Load: func(size workload.SizeClass) *Instance {
			in := wordcount.Load(size)
			inst := &Instance{
				Desc: fmt.Sprintf("%d MB text", len(in.Text)>>20),
				Seq:  func() { wordcount.RunSeq(in) },
				CP:   func(w int) { wordcount.RunCP(in, w) },
			}
			attachSSHooks(inst, func(rt *prometheus.Runtime) prometheus.Stats {
				_, st := wordcount.RunSSOn(rt, in)
				return st
			})
			return inst
		},
	},
}
