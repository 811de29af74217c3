package core

import "time"

// Phase identifies which epoch type the program context is currently in.
// Reduction is accounted as its own phase even though it occurs inside an
// aggregation epoch, matching the breakdown of the paper's Figure 5a.
type Phase int

const (
	PhaseAggregation Phase = iota
	PhaseIsolation
	PhaseReduction
)

func (p Phase) String() string {
	switch p {
	case PhaseAggregation:
		return "aggregation"
	case PhaseIsolation:
		return "isolation"
	case PhaseReduction:
		return "reduction"
	default:
		return "unknown"
	}
}

// Stats accumulates runtime counters and the per-phase wall-clock breakdown
// used to regenerate Figure 5a. Most fields are maintained by the program
// context; the drain, lane, spill and handoff counters are aggregated from
// per-delegate (and per-producer, and per-lane) atomics when a snapshot is
// taken, so a Stats() call may observe work mid-flight.
type Stats struct {
	Delegations  uint64 // operations sent to delegate contexts
	InlineExecs  uint64 // operations executed inline in Sequential mode
	Syncs        uint64 // ownership reclaims (synchronization objects)
	Barriers     uint64 // full-runtime barriers (EndIsolation, Sleep)
	Epochs       uint64 // isolation epochs begun
	BatchFlushes uint64 // always zero: the batch buffer is gone; declared only because the frozen bench/ reads it
	BatchedOps   uint64 // always zero, kept for the same reason
	Steals       uint64 // serialization sets handed off, whole, by the occupancy-aware rebalancer
	DrainBatches uint64 // delegate-side batched drains (PopBatch runs executed)
	DrainedOps   uint64 // invocations delivered through batched drains
	RecursiveOps uint64 // messages pushed into delegate lanes by all producer contexts (operations, pool tasks, sync objects)
	Spills       uint64 // lane ring overflows absorbed by spill lists (delegate producers only: delegations and sheds)

	HelpedOps uint64 // operations the program context executed itself while it waited in a barrier
	Sheds     uint64 // hand-overs of whole sets from a delegate that brought them (delegate.go, shed)

	// Fault-containment counters (internal/core/fault.go). Panics counts
	// contained delegated-operation panics; PoisonedSets counts sets ever
	// poisoned by one (poisoning is epoch-scoped, the counter cumulative);
	// DroppedOps counts delegations dropped because their set was poisoned
	// — the deterministic skip of everything after a faulting position.
	// DroppedFaults counts fault RECORDS evicted by the bounded retention
	// ring (DefaultFaultRecordBound) — nonzero means Runtime.Err describes
	// only the most recent faults, while Panics still counts them all.
	Panics        uint64
	PoisonedSets  uint64
	DroppedOps    uint64
	DroppedFaults uint64

	Aggregation time.Duration
	Isolation   time.Duration
	Reduction   time.Duration
}

// Total returns the wall-clock total across the three phases.
func (s Stats) Total() time.Duration {
	return s.Aggregation + s.Isolation + s.Reduction
}

// phaseClock tracks the current phase and charges elapsed time to it on each
// transition.
type phaseClock struct {
	phase Phase
	start time.Time
}

func newPhaseClock() phaseClock {
	return phaseClock{phase: PhaseAggregation, start: time.Now()}
}

// switchTo charges time elapsed in the current phase to st and enters p.
func (c *phaseClock) switchTo(p Phase, st *Stats) {
	now := time.Now()
	d := now.Sub(c.start)
	switch c.phase {
	case PhaseAggregation:
		st.Aggregation += d
	case PhaseIsolation:
		st.Isolation += d
	case PhaseReduction:
		st.Reduction += d
	}
	c.phase = p
	c.start = now
}
