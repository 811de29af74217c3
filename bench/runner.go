package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	prometheus "repro"
)

// env is what a workload run is given: the seed its inputs come from, where it
// may write, and the span recorder when the run is traced.
type env struct {
	seed  uint64
	quick bool      // tiny inputs and two rounds: the self-test's mode
	nproc int       // callers and connections never exceed this
	dir   string    // scratch directory inside the checkout
	src   string    // the benchmark's module directory, for building cmd/ssserve
	rec   *recorder // nil unless traced
	log   io.Writer // progress and notes; never the result line
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// pick returns full unless the run is quick.
func (e *env) pick(full, quick int) int {
	if e.quick {
		return quick
	}
	return full
}

// delegates is the pool size every workload uses: one context per CPU, the
// program context included.
func (e *env) delegates() int { return max(1, e.nproc-1) }

// round is one fixed amount of work: the same operation count on every commit,
// so per-round numbers compare directly. wall and cpu cover only the timed
// section; checking happens off the clock.
type round struct {
	ops, failed int64
	wall, cpu   time.Duration
	lat         []int64 // one latency sample per measured operation, ns
}

// closing is what an instance reports when it is torn down.
type closing struct {
	peakRSSMB float64
	core      prometheus.Stats   // runtime counters over the instance's life
	extra     map[string]float64 // by-products for the per-layer table
}

// instance is one booted copy of the system under test.
type instance interface {
	round() (round, error)
	// close tears the instance down and runs the end-of-run checks.
	close() (closing, error)
}

// workload is one set of inputs. prepare runs once and off every clock
// (inputs from the seed, reference outputs, binaries); setup is timed, and may
// run several times: it boots the system and warms it up.
type workload struct {
	name, why string
	prepare   func(e *env) error
	setup     func(e *env) (instance, error)
	// fewSamples marks a workload with one latency sample per round
	// (apps-m: a pass). Its tail is the upper quartile across rounds, since a
	// p99 of ten numbers is not a percentile.
	fewSamples bool
	// tailQ is the quantile of a round's latencies that tail_us reports; zero
	// means 0.99. serve-http sets 0.90: see w_http.go.
	tailQ float64

	prepared bool
}

// plan says how long a window runs and how often the workload is set up
// before it.
type plan struct {
	seconds float64
	setups  int
}

// measured is the outcome of a timed window.
type measured struct {
	setupS          float64
	opsPerS         []float64 // one per kept round
	p50us, tailus   []float64
	canaryNs        float64
	rounds, dropped int
	samplesPerRound int
	attempted       int64
	failed          int64
	cpuUsPerOp      float64
	closing
}

// Canary rule: a round whose canary ran more than 15% slower than the run's
// median canary is set aside, as long as two thirds of the rounds remain. The
// median, not the fastest: on the host this was built on one canary in twenty
// runs a fifth faster than all the rest, and would condemn them all.
const (
	canarySlack = 1.15
	minKeptNum  = 2
	minKeptDen  = 3
)

// keepRounds applies the canary rule and reports which rounds to keep.
func keepRounds(canaries []time.Duration) []bool {
	n := len(canaries)
	keep := make([]bool, n)
	sorted := slices.Clone(canaries)
	slices.Sort(sorted)
	limit := time.Duration(float64(sorted[n/2]) * canarySlack)
	kept := 0
	for i, c := range canaries {
		if c <= limit {
			keep[i] = true
			kept++
		}
	}
	need := (n*minKeptNum + minKeptDen - 1) / minKeptDen
	if kept >= need {
		return keep
	}
	// Too many slow canaries: the host was busy throughout. Keep the quietest
	// two thirds rather than report from a handful of rounds.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return int(canaries[a] - canaries[b]) })
	clear(keep)
	for _, i := range order[:need] {
		keep[i] = true
	}
	return keep
}

// measure sets the workload up p.setups times (the median is setup_s; the
// last instance is kept), runs fixed-work rounds for about p.seconds, then
// closes the instance, which runs its end-of-run checks.
func measure(w *workload, e *env, p plan) (*measured, error) {
	if w.prepare != nil && !w.prepared {
		if err := w.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
		w.prepared = true
	}
	var inst instance
	var setupTimes []float64
	for i := 0; i < p.setups; i++ {
		if inst != nil {
			if _, err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close after setup %d: %w", w.name, i, err)
			}
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	m := &measured{setupS: median(setupTimes)}
	if wi, ok := inst.(interface{ warm() error }); ok {
		if err := wi.warm(); err != nil {
			inst.close()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}

	tailQ := cmp.Or(w.tailQ, 0.99)
	type stat struct {
		opsPerS, p50, tail float64
		ops                int64
		cpu                time.Duration
	}
	var stats []stat
	var canaries []time.Duration
	for start := time.Now(); len(stats) == 0 || time.Since(start).Seconds() < p.seconds; {
		c := canary()
		r, err := inst.round()
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("%s: round %d: %w", w.name, len(stats)+1, err)
		}
		m.attempted += r.ops + r.failed
		m.failed += r.failed
		slices.Sort(r.lat)
		m.samplesPerRound = len(r.lat)
		canaries = append(canaries, c)
		stats = append(stats, stat{
			opsPerS: float64(r.ops) / r.wall.Seconds(),
			p50:     float64(nsQuantile(r.lat, 0.50)) / 1e3,
			tail:    float64(nsQuantile(r.lat, tailQ)) / 1e3,
			ops:     r.ops,
			cpu:     r.cpu,
		})
	}
	var err error
	if m.closing, err = inst.close(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	keep := keepRounds(canaries)
	var cs []float64
	var ops int64
	var cpu time.Duration
	for i, s := range stats {
		cs = append(cs, float64(canaries[i]))
		if !keep[i] {
			m.dropped++
			continue
		}
		m.opsPerS = append(m.opsPerS, s.opsPerS)
		m.p50us = append(m.p50us, s.p50)
		m.tailus = append(m.tailus, s.tail)
		ops += s.ops
		cpu += s.cpu
	}
	m.rounds = len(stats)
	m.canaryNs = median(cs)
	if w.fewSamples {
		m.tailus = []float64{quantile(m.p50us, 0.75)}
	}
	if ops > 0 {
		m.cpuUsPerOp = float64(cpu.Nanoseconds()) / 1e3 / float64(ops)
	}
	return m, nil
}
