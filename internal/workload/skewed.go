package workload

import (
	"runtime"
	"sync/atomic"

	prometheus "repro"
)

// SkewedRecursive is the wave-throttled 90/10-skewed recursive producer
// shared by BenchmarkRecursiveSkewed and the recursive-stealing
// determinism stress — the imbalance shape the recursive whole-set
// rebalancer exists for. Operations arrive as runs of RunLen
// consecutive delegations per hot set with one cold delegation after each
// run (dependence chains of uneven length), so a hot set's first
// delegation of a wave routes while the victim still carries the previous
// run — the quiescent window the rebalancer migrates in. Each wave ends
// with one marker per hot set and a spin-wait until all markers have
// executed: a delegate-context producer never blocks on a full lane, so
// an unthrottled stream would grow the lanes without bounding occupancy,
// and the wait is also what creates the quiescent boundaries.
//
// The mechanics here are load-bearing for every user: the marker
// accounting, the done-counter reset, and the placement of the hot sets
// (they must pile onto one delegate; neither list may include the
// producer's own set) decide whether handoffs can fire at all and whether
// the wait can deadlock. Under StaticMod the caller picks set ids that are
// congruent modulo the pool size; under LeastLoaded, where a set is
// homed at first touch on the least-occupied delegate, Run co-homes the hot
// sets itself before the first wave (cohome).
type SkewedRecursive struct {
	Hot    []uint64 // hot sets (90% of operations), co-homed on one delegate
	Cold   []uint64 // cold sets, spread over the others
	Waves  int
	RunLen int // consecutive operations per hot set; one cold op follows each run
}

// OpsPerWave returns how many non-marker operations one wave delegates.
func (s SkewedRecursive) OpsPerWave() int { return len(s.Hot) * (s.RunLen + 1) }

// Run streams the shape from inside producer context c. makeOp returns
// the operation to delegate for each (set, seq) — return a shared func
// value to keep the driver allocation-free per operation, or a fresh
// closure to record per-operation data. seq increments across the whole
// run in delegation order, the order per-set logs must replay.
func (s SkewedRecursive) Run(c *prometheus.Ctx, makeOp func(set uint64, seq int32) func(*prometheus.Ctx)) {
	s.cohome(c)
	var done atomic.Int64
	seq := int32(0)
	opsPerWave := s.OpsPerWave()
	for wave := 0; wave < s.Waves; wave++ {
		markers := int64(0)
		for k := 0; k < opsPerWave; k++ {
			run := k / (s.RunLen + 1)
			set := s.Hot[run%len(s.Hot)]
			if k%(s.RunLen+1) == s.RunLen {
				set = s.Cold[run%len(s.Cold)]
			}
			c.Delegate(set, makeOp(set, seq))
			seq++
		}
		for _, h := range s.Hot {
			c.Delegate(h, func(*prometheus.Ctx) { done.Add(1) })
			markers++
		}
		for done.Load() < markers {
			runtime.Gosched()
		}
		done.Store(0)
	}
}

// cohome gives the shape its skew under first-touch placement: it parks a
// backlog deeper than len(Hot) on every delegate but the producer's own
// and one other — one cold set each, behind an operation that holds until
// released — then touches every hot set, so all of them are homed on the
// one delegate left idle, and drains the lot before the first wave. With
// fewer cold sets than Delegates-2 some hot sets land on the delegates left
// over. Under StaticMod the operations simply run where the table says.
func (s SkewedRecursive) cohome(c *prometheus.Ctx) {
	var release atomic.Bool
	var done atomic.Int64
	hold := func(*prometheus.Ctx) {
		for !release.Load() {
			runtime.Gosched()
		}
		done.Add(1)
	}
	tick := func(*prometheus.Ctx) { done.Add(1) }
	sent := int64(0)
	for _, cold := range s.Cold[:min(len(s.Cold), max(0, c.Runtime().NumDelegates()-2))] {
		c.Delegate(cold, hold)
		for range s.Hot {
			c.Delegate(cold, tick)
		}
		sent += int64(1 + len(s.Hot))
	}
	for _, h := range s.Hot {
		c.Delegate(h, tick)
		sent++
	}
	release.Store(true)
	for done.Load() < sent {
		runtime.Gosched()
	}
}
