package core

import (
	"runtime"
	"time"

	"repro/internal/spsc"
)

// DefaultWatchdog is the no-progress bound the barrier watchdog uses when
// Checked mode is on and Config.Watchdog was left zero. Generous on
// purpose: the watchdog exists to turn a wedged barrier from a silent hang
// (or a CI timeout) into a state dump, not to police slow operations.
const DefaultWatchdog = 30 * time.Second

// DefaultFaultRecordBound caps how many contained-panic records the runtime
// retains (fault.go): the record store is a ring that evicts the oldest
// fault once the bound is reached, counting evictions in
// Stats.DroppedFaults. 1024 full stack captures is roughly a few tens of
// megabytes worst case — enough history to diagnose a fault storm, small
// enough that a runtime that keeps containing panics holds steady-state
// memory. Poison state and the fault counters are unaffected by eviction.
const DefaultFaultRecordBound = 1024

// The steal trigger's two constants (maybeSteal): a set leaves its owner
// when the owner's occupancy is at least stealThreshold and the
// least-occupied peer's times stealRatio is at most the owner's. Four is
// above transient two-or-three-deep pipelining and early enough to matter
// inside the one 256-slot ring a stealing runtime's program lane is; a
// quarter keeps a balanced pool sticky. BenchmarkRecursiveSkewed is the
// evidence for both.
const (
	stealThreshold = 4
	stealRatio     = 4
)

// drainBatchSize bounds the delegate-side drain buffer: a delegate pops up
// to this many invocations from a claimed lane and executes them back to
// back, publishing its progress once per run. 64 invocation-sized records
// is 4KB per delegate — enough to amortize the ledger and producer-signal
// stores across deep backlogs without hoarding a large resident buffer.
const drainBatchSize = 64

// progLaneRings is how many rings deep the program context's lanes are
// without Stealing: a delegate's program lane, the one the program context
// pushes into, holds progLaneRings×QueueCapacity invocations, and so does
// each inbox lane a shed fills (not under Recursive, which never sheds);
// every other lane is one ring. 4,096 slots at the default hold a whole
// epoch of the paper's programs at size M (2,500 at most, reverse_index),
// so the program context reaches the barrier with the epoch queued behind
// it — where a busy delegate sheds half of it — instead of waiting for
// room for most of the epoch. The program context still waits on a full
// lane: the backpressure bound is exact, only deeper, and no lane
// allocates after construction. Stealing keeps one ring: a steal needs a
// set to go quiescent while its owner is backed up, which a program
// context that queues the epoch whole hardly ever lets happen.
const progLaneRings = 16

// spinBeforePark bounds a delegate's busy-wait over its pending-lane
// bitmask before it parks on its wake channel. An idle poll is one load per
// word, as cheap as polling a ring slot, so the loop spins as long as the
// SPSC rings' blocking calls do.
const spinBeforePark = 256

// helpAfter is how long a barrier stays a plain park before the program
// context asks for work (the first deadline of its wait): above an epoch of
// tiny operations and a hand-over's own cost, far below one coarse
// operation.
const helpAfter = 50 * time.Microsecond

// SchedPolicy names a placement. It is derived, not chosen: Config.Policy
// reads LeastLoaded exactly when Stealing is on, and both stay declared only
// because bench/ (which this repository's benchmark rules freeze) still
// names them.
type SchedPolicy int

const (
	// StaticMod is the paper's placement (§4): set s executes on delegate
	// s mod D + 1, D the pool size.
	StaticMod SchedPolicy = iota
	// LeastLoaded is first-touch placement plus whole-set stealing
	// (owners.go), the dynamic scheduling the paper names as future work.
	LeastLoaded
)

// Config parameterizes a Runtime. The zero value is usable: it selects
// GOMAXPROCS-1 delegates and the paper's static modulus placement.
type Config struct {
	// Delegates is the number of delegate contexts (paper: delegate
	// threads). Default: GOMAXPROCS-1, minimum 1. The pool is built at New
	// and fixed for the runtime's life; with Recursive its lane matrix costs
	// O(Delegates^2) rings.
	Delegates int

	// QueueCapacity is the capacity of each communication lane's bounded
	// ring (one lane per delegate, one per delegate and producer with
	// Recursive). Without Stealing a delegate's program lane, the one the
	// program context pushes into, is progLaneRings (16) rings instead. The
	// program context blocks on a full program lane; a delegate producer
	// overflows into the lane's unbounded spill list. Default
	// spsc.DefaultCapacity. Internal testing knob like StealThreshold, not
	// exposed as a public Option: the determinism and stress suites shrink
	// the rings to force full program lanes and spills on tiny programs.
	QueueCapacity int

	// DelegateBatch is inert: the program-context batch buffer it sized is
	// gone. The field stays declared only because bench/ (which this
	// repository's benchmark rules freeze) still names it.
	DelegateBatch int

	// Sequential enables the paper's debug mode (§3.3): every delegation
	// executes inline in the program context, in program order, while all
	// serializers and dynamic checks still run. The program computes the
	// same answers with a single goroutine.
	Sequential bool

	// Checked enables the dynamic error detection of §3.3 (serializer
	// consistency tagging, partition state machines). Benchmarks disable it,
	// as the paper does for its performance measurements.
	Checked bool

	// Policy is inert on input: New derives it from Stealing (LeastLoaded
	// exactly when Stealing is on) whatever was requested, and Config
	// reports the result. The field stays declared only because bench/
	// (which this repository's benchmark rules freeze) still names it.
	Policy SchedPolicy

	// Stealing selects dynamic placement: each epoch places a set on first
	// touch, on the least-occupied delegate, and a quiescent set whose owner
	// is backed up is handed, whole, to a much less occupied delegate at its
	// next delegation (maybeSteal has the rule, owners.go the protocol).
	// Whole sets — never individual invocations — are the steal unit, so
	// per-set program order is preserved by construction. Off, set s runs
	// on delegate s mod D + 1 (paper §4).
	Stealing bool

	// StealThreshold overrides the victim occupancy at which stealing
	// engages; zero selects the constant. Internal testing knob like
	// FaultInjector, not exposed as a public Option: the determinism suites
	// set 1 or 2 to force steals on tiny programs, and a value no backlog
	// reaches for first-touch placement without steals.
	StealThreshold int

	// Trace enables execution tracing: every executed operation (pool tasks
	// included), epoch, whole-set steal and contained panic is recorded
	// with timestamps into per-context buffers, retrievable via
	// Runtime.TraceEvents.
	Trace bool

	// Recursive permits recursive delegation (the paper's named future-work
	// extension): delegated operations may delegate further operations
	// through their execution context. It widens every delegate's lane set
	// from one lane to one per context and makes SyncContext/SyncSet the
	// quiescence barrier (a reclaim must also cover nested work); see
	// internal/core/delegate.go for the semantics.
	Recursive bool

	// FaultInjector, when non-nil, is invoked on the executing delegate
	// immediately before each delegated method invocation runs, with the
	// executing context id and the operation's serialization set (NoSet for
	// pool tasks). A panic thrown by the hook is contained exactly like a
	// panic in the operation itself — the seam the chaos-injection harness
	// (internal/chaos) drives. Internal testing knob, deliberately not
	// exposed as a public Option; a nil hook costs the drain loop one nil
	// check per run.
	FaultInjector func(ctx int, set uint64)

	// Watchdog bounds how long the program context will wait — for a
	// reclaim (SyncContext), a barrier (EndIsolation, Terminate) or room on
	// a full program lane — while no delegate publishes any progress before
	// panicking with a dump of what it waits for, per-delegate pending lanes
	// and ledger positions — turning a wedged wait into an actionable
	// report instead of a silent hang. Progress is measured by
	// the published executed/drain counters, which move when a drain run is
	// popped and when it is published, not per operation: size it above the
	// longest drain run, or a legitimate one is indistinguishable from a
	// wedge. A run is up to drainBatchSize (64) back-to-back operations of
	// one lane, plus — on a delegate a barrier asked for work (shed; not
	// under Recursive) — everything it still held, up to a full program
	// lane more (16 rings without Stealing, one with it). Zero selects the
	// default (DefaultWatchdog when Checked is on, disabled otherwise);
	// negative disables it explicitly.
	Watchdog time.Duration
}

// withDefaults returns a copy of c with unset fields filled in.
func (c Config) withDefaults() Config {
	if c.Delegates <= 0 {
		c.Delegates = runtime.GOMAXPROCS(0) - 1
		if c.Delegates < 1 {
			c.Delegates = 1
		}
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = spsc.DefaultCapacity
	}
	c.Policy = StaticMod
	if c.Stealing {
		c.Policy = LeastLoaded
	}
	if c.StealThreshold <= 0 {
		c.StealThreshold = stealThreshold
	}
	if c.Watchdog == 0 && c.Checked {
		c.Watchdog = DefaultWatchdog
	}
	if c.Watchdog < 0 {
		c.Watchdog = 0 // explicit off
	}
	return c
}
