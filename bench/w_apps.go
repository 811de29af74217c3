package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	prometheus "repro"
	"repro/internal/apps/barneshut"
	"repro/internal/apps/blackscholes"
	"repro/internal/apps/dedup"
	"repro/internal/apps/freqmine"
	"repro/internal/apps/histogram"
	"repro/internal/apps/kmeans"
	"repro/internal/apps/reverseindex"
	"repro/internal/apps/wordcount"
	"repro/internal/fpm"
	"repro/internal/harness"
	inputs "repro/internal/workload"
)

// loadedApp is one of the paper's eight programs with its input loaded:
// the sequential reference, the serialization-sets version, and the output
// comparison its own package test uses.
type loadedApp struct {
	seq   func() any
	ss    func(delegates int) (any, prometheus.Stats)
	equal func(got, want any) bool
}

type appDef struct {
	name string
	load func(size inputs.SizeClass) loadedApp
}

// app adapts one app package's typed functions. internal/harness.Apps hides
// the outputs, and checking them is the point, so the packages are called
// directly, in the registry's order.
func app[I, O any](name string, load func(inputs.SizeClass) *I, seq func(*I) *O,
	ss func(*I, int) (*O, prometheus.Stats), equal func(got, want *O) bool) appDef {
	if equal == nil {
		equal = func(got, want *O) bool { return reflect.DeepEqual(got, want) }
	}
	return appDef{name: name, load: func(size inputs.SizeClass) loadedApp {
		in := load(size)
		return loadedApp{
			seq:   func() any { return seq(in) },
			ss:    func(d int) (any, prometheus.Stats) { return ss(in, d) },
			equal: func(got, want any) bool { return equal(got.(*O), want.(*O)) },
		}
	}}
}

var appDefs = []appDef{
	app("barneshut", barneshut.Load, barneshut.RunSeq, barneshut.RunSS, nil),
	app("blackscholes", blackscholes.Load, blackscholes.RunSeq, blackscholes.RunSS, nil),
	app("dedup", dedup.Load, dedup.RunSeq, dedup.RunSS, nil),
	app("freqmine", freqmine.Load, freqmine.RunSeq, freqmine.RunSS, freqmineEqual),
	app("histogram", histogram.Load, histogram.RunSeq, histogram.RunSS, nil),
	app("kmeans", kmeans.Load, kmeans.RunSeq, kmeans.RunSS, kmeansEqual),
	app("reverse_index", reverseindex.Load, reverseindex.RunSeq, reverseindex.RunSS, nil),
	app("word_count", wordcount.Load, wordcount.RunSeq, wordcount.RunSS, nil),
}

// freqmineEqual: runners emit the frequent itemsets in discovery order, which
// differs between implementations. The package test sorts both sides; sorting
// a quarter of a million itemsets costs more than mining them, so the outputs
// are compared as multisets instead, by two order-independent 64-bit sums over
// per-itemset hashes of items and support.
func freqmineEqual(got, want *freqmine.Output) bool {
	return len(got.Sets) == len(want.Sets) && itemsetsPrint(got.Sets) == itemsetsPrint(want.Sets)
}

func itemsetsPrint(sets []fpm.ItemSet) (p [2]uint64) {
	for _, s := range sets {
		h := prometheus.Mix64(uint64(s.Support))
		for _, it := range s.Items {
			h = prometheus.Mix64(h ^ uint64(it))
		}
		p[0] += h
		p[1] += prometheus.Mix64(^h)
	}
	return p
}

// kmeansEqual: assignments are exact; centroids are sums reduced in a
// different order, so they agree to rounding (the package test's tolerance).
func kmeansEqual(got, want *kmeans.Output) bool {
	if !reflect.DeepEqual(got.Assign, want.Assign) || len(got.Centroids) != len(want.Centroids) {
		return false
	}
	for c := range want.Centroids {
		if len(got.Centroids[c]) != len(want.Centroids[c]) {
			return false
		}
		for d := range want.Centroids[c] {
			if math.Abs(got.Centroids[c][d]-want.Centroids[c][d]) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// checkAppOutput is the apps-m correctness check, separate so the self-test
// can feed it a wrong output.
func checkAppOutput(name string, a loadedApp, got, want any) error {
	if !a.equal(got, want) {
		return fmt.Errorf("%s: serialization-sets output differs from the sequential reference", name)
	}
	return nil
}

// appsWorkload is apps-m: one pass runs the eight programs once each.
func appsWorkload() *workload {
	var (
		size  inputs.SizeClass
		want  []any     // sequential reference outputs, by app
		seqMs []float64 // time of the reference runs
	)
	w := &workload{
		name:       "apps-m",
		why:        "the paper's eight programs at size M: coarse operations, so placement and reduction show and hot-path micro-costs should not",
		fewSamples: true,
	}
	w.prepare = func(e *env) error {
		size = inputs.Medium
		if e.quick {
			size = inputs.Small
		}
		want, seqMs = nil, nil
		for _, d := range appDefs {
			a := d.load(size)
			runtime.GC()
			start := time.Now()
			want = append(want, a.seq())
			seqMs = append(seqMs, float64(time.Since(start).Nanoseconds())/1e6)
		}
		return nil
	}
	w.setup = func(e *env) (instance, error) {
		inst := &appsInstance{e: e, want: want, seqMs: seqMs, ssMs: make([][]float64, len(appDefs))}
		for _, d := range appDefs {
			inst.apps = append(inst.apps, d.load(size))
		}
		if e.rec != nil {
			inst.spans = e.rec.buf()
		}
		return inst, nil
	}
	return w
}

type appsInstance struct {
	e      *env
	apps   []loadedApp
	want   []any
	seqMs  []float64
	ssMs   [][]float64 // per app, one per measured pass
	last   []prometheus.Stats
	core   prometheus.Stats
	passes int64
	spans  *spanBuf
}

// pass runs every app once. Only the runs themselves are on the clock: a
// collection before each run puts every run on the same heap, and the output
// comparison follows it.
func (a *appsInstance) pass(record bool) (round, error) {
	var r round
	a.last = a.last[:0]
	type timed struct{ start, end int64 }
	var ts []timed
	for i, d := range appDefs {
		runtime.GC()
		cpu0 := selfCPU()
		var t timed
		if a.spans != nil {
			t.start = a.e.rec.now()
		}
		start := time.Now()
		got, st := a.apps[i].ss(a.e.delegates())
		d1 := time.Since(start)
		if a.spans != nil {
			t.end = a.e.rec.now()
			ts = append(ts, t)
		}
		r.cpu += selfCPU() - cpu0
		r.wall += d1
		if err := checkAppOutput(d.name, a.apps[i], got, a.want[i]); err != nil {
			return r, err
		}
		r.ops++
		a.last = append(a.last, st)
		if record {
			a.ssMs[i] = append(a.ssMs[i], float64(d1.Nanoseconds())/1e6)
			addStats(&a.core, st)
		}
	}
	if record && a.spans != nil {
		a.passes++
		// The pass span covers only the timed runs, laid end to end.
		parent := a.spans.add("apps.pass", ts[0].start, ts[0].start+int64(r.wall), 0, a.passes)
		for i, t := range ts {
			a.spans.add("apps."+appDefs[i].name, t.start, t.end, parent, a.passes)
		}
	}
	r.lat = []int64{int64(r.wall)}
	return r, nil
}

// warm runs one discarded pass: page faults, pools and the allocator's first
// growth belong to no measured pass. It is not part of set-up, which is
// repeated; a pass takes seconds.
func (a *appsInstance) warm() error {
	if a.e.quick {
		return nil
	}
	_, err := a.pass(false)
	return err
}

func (a *appsInstance) round() (round, error) { return a.pass(true) }

func (a *appsInstance) close() (closing, error) {
	c := closing{peakRSSMB: selfPeakRSSMB(), core: a.core, extra: map[string]float64{}}
	var speedups []float64
	for i, d := range appDefs {
		if len(a.ssMs[i]) == 0 {
			continue
		}
		ss := median(a.ssMs[i])
		st := a.last[i]
		c.extra["apps."+d.name+".ss_ms"] = ss
		c.extra["apps."+d.name+".seq_ms"] = a.seqMs[i]
		c.extra["apps."+d.name+".speedup"] = a.seqMs[i] / ss
		c.extra["apps."+d.name+".delegations"] = float64(st.Delegations)
		c.extra["apps."+d.name+".isolation_share"] = float64(st.Isolation) / float64(st.Total())
		speedups = append(speedups, a.seqMs[i]/ss)
	}
	if len(speedups) == len(appDefs) {
		c.extra["apps.hmean_speedup"] = harness.HarmonicMean(speedups)
	}
	return c, nil
}

// addStats accumulates the counters the per-layer table reads.
func addStats(dst *prometheus.Stats, s prometheus.Stats) {
	dst.Delegations += s.Delegations
	dst.InlineExecs += s.InlineExecs
	dst.Syncs += s.Syncs
	dst.Barriers += s.Barriers
	dst.BatchFlushes += s.BatchFlushes
	dst.BatchedOps += s.BatchedOps
	dst.Steals += s.Steals
	dst.DrainBatches += s.DrainBatches
	dst.DrainedOps += s.DrainedOps
	dst.Spills += s.Spills
}
