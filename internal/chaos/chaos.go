// Package chaos is the fault-injection harness behind the containment and
// serving-robustness tests. An Injector produces a hook the core runtime
// invokes on the executing delegate immediately before every delegated
// method runs (Config.FaultInjector); when the injector's trigger condition
// holds, the hook panics with a Fault value, exercising the
// recover/poison/report machinery exactly where a user operation would have
// faulted.
//
// Beyond panics, the package provides two injectors that serving-tier
// tests put behind a handler or a fake backend, and that FaultyFS
// (store.go) applies to storage writes: Latency (deterministic delay
// spikes, the deadline and slow-key watchdog exercise) and Errors
// (deterministic failures, the retry and failed-commit exercise). Both
// share the panic injectors' determinism discipline: triggers are pure
// functions of (seed, set, per-set position), never of wall-clock time or
// a global RNG, so a chaos profile replays identically run over run.
//
// Two triggers are provided. PanicAt fires at the Nth operation of one
// chosen set and is fully deterministic: because the serialization-set
// invariant runs a set's operations one at a time in delegation order, the
// per-set counter the injector keeps observes the same sequence on every
// run regardless of scheduling, stealing, or engine mode — which is what
// lets the chaos tests demand byte-identical poisoning points across runs.
// Seeded fires pseudo-randomly from a seed and a per-(set, position) mix,
// for survival stress where the interesting property is "the process never
// dies or wedges", not "the same op faults every time". Note Seeded is
// deterministic per (set, position) too — the mix has no global state — so
// repeated runs of the same workload inject the same faults even though
// the faults look scattered.
//
// The injector fires before the user method is invoked, so a faulted
// operation contributes none of its side effects: the surviving prefix of
// a poisoned set's log is exactly operations 1..N-1, with nothing partial
// from operation N.
package chaos

import (
	"fmt"
	"sync"
	"time"
)

// Fault is the value injected panics carry. It is a comparable error, so
// tests can assert errors.Is(err, chaos.Fault{Set: s, N: n}) against the
// runtime's reported fault chain.
type Fault struct {
	// Set is the serialization set whose operation was made to panic.
	Set uint64
	// N is the 1-based position of the faulted operation within its set's
	// delegation order.
	N uint64
}

func (f Fault) Error() string {
	return fmt.Sprintf("chaos: injected panic at op %d of set %d", f.N, f.Set)
}

// counter is the per-set trigger every injector shares: it counts each
// set's operations and decides, by position, which of them fire. Safe for
// concurrent use.
type counter struct {
	mu     sync.Mutex
	counts map[uint64]uint64
	fired  uint64
	// trigger reports whether the nth (1-based) operation of set fires.
	// Called under mu.
	trigger func(set, n uint64) bool
}

func newCounter(trigger func(set, n uint64) bool) counter {
	return counter{counts: make(map[uint64]uint64), trigger: trigger}
}

// next counts one operation of set and returns its 1-based position and
// whether the trigger fires on it.
func (c *counter) next(set uint64) (n uint64, fire bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[set]++
	n = c.counts[set]
	if fire = c.trigger(set, n); fire {
		c.fired++
	}
	return n, fire
}

// Fired reports how many operations the trigger has fired on.
func (c *counter) Fired() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// seededTrigger fires on roughly fraction p of operations, chosen by mixing
// seed with the operation's (set, position) coordinate.
func seededTrigger(seed uint64, p float64) func(uint64, uint64) bool {
	thr := probThreshold(p)
	return func(s, k uint64) bool { return (mix(seed, s, k) >> 1) < thr }
}

// nthOf fires on exactly the nth (1-based) operation of one set.
func nthOf(set, n uint64) func(uint64, uint64) bool {
	return func(s, k uint64) bool { return s == set && k == n }
}

// Injector counts operations per set and panics when its trigger decides
// an operation should fault. Safe for concurrent use by every delegate.
// Fired reports how many panics it has raised.
type Injector struct{ counter }

// PanicAt returns an injector that panics at the nth (1-based) operation
// delegated to set, once. Every other operation passes through untouched.
func PanicAt(set, n uint64) *Injector {
	return &Injector{newCounter(nthOf(set, n))}
}

// Seeded returns an injector that panics on roughly fraction p of
// operations, chosen by mixing seed with the operation's (set, position)
// coordinate. Deterministic for a fixed seed and workload; different seeds
// scatter the faults differently.
func Seeded(seed uint64, p float64) *Injector {
	return &Injector{newCounter(seededTrigger(seed, p))}
}

// Hook returns the function to install as Config.FaultInjector. The hook
// panics with a Fault value when the trigger fires.
func (in *Injector) Hook() func(ctx int, set uint64) {
	return func(ctx int, set uint64) {
		if n, fire := in.next(set); fire {
			panic(Fault{Set: set, N: n})
		}
	}
}

// Reset clears the per-set counters (the fired total is kept), so one
// injector can be reused across isolation epochs with per-epoch positions.
func (in *Injector) Reset() {
	in.mu.Lock()
	clear(in.counts)
	in.mu.Unlock()
}

// Injected is the error value the Errors injector returns. It is
// comparable, so tests can assert errors.Is against an exact (set,
// position) coordinate.
type Injected struct {
	// Set is the serialization set whose operation was failed.
	Set uint64
	// N is the 1-based position of the failed operation within the
	// injector's per-set count.
	N uint64
}

func (e Injected) Error() string {
	return fmt.Sprintf("chaos: injected error at op %d of set %d", e.N, e.Set)
}

// Latency injects deterministic delays: each Delay call counts one
// operation of its set and returns the configured duration when the
// trigger fires, zero otherwise. The caller performs the sleep. Fired
// reports how many delays it has issued.
type Latency struct {
	counter
	d time.Duration
}

// SpikeEvery returns a latency injector that delays every kth operation of
// each set by d — the "periodic latency spike" profile. k <= 1 delays every
// operation.
func SpikeEvery(k uint64, d time.Duration) *Latency {
	k = max(k, 1)
	return &Latency{newCounter(func(_, n uint64) bool { return n%k == 0 }), d}
}

// SeededLatency returns a latency injector that delays roughly fraction p
// of operations by d, chosen by the same seeded (set, position) mix the
// panic injector uses — scattered but fully deterministic per seed.
func SeededLatency(seed uint64, p float64, d time.Duration) *Latency {
	return &Latency{newCounter(seededTrigger(seed, p)), d}
}

// Delay counts one operation of set and returns the delay to apply to it
// (zero for untouched operations). Safe for concurrent use.
func (l *Latency) Delay(set uint64) time.Duration {
	if _, fire := l.next(set); fire {
		return l.d
	}
	return 0
}

// Errors injects deterministic failures: each Err call counts one
// operation of its set and returns an Injected error when the trigger
// fires, nil otherwise. An injected error is transient by construction
// (the next position rolls a fresh coin), so a retried operation usually
// succeeds. Fired reports how many errors it has returned.
type Errors struct{ counter }

// SeededErrors returns an error injector that fails roughly fraction p of
// operations, deterministic per (seed, set, position).
func SeededErrors(seed uint64, p float64) *Errors {
	return &Errors{newCounter(seededTrigger(seed, p))}
}

// ErrorAt returns an error injector that fails exactly the nth (1-based)
// operation of one chosen set, once — the deterministic unit-test trigger.
func ErrorAt(set, n uint64) *Errors {
	return &Errors{newCounter(nthOf(set, n))}
}

// Err counts one operation of set and returns the failure to inject (nil
// for untouched operations). Safe for concurrent use.
func (e *Errors) Err(set uint64) error {
	if n, fire := e.next(set); fire {
		return Injected{Set: set, N: n}
	}
	return nil
}

// probThreshold converts probability p into the 63-bit comparison
// threshold the seeded triggers share. uint64(p * 2^64) overflows for p
// near 1, so triggers compare the top 63 bits of the mix against p scaled
// by 2^63.
func probThreshold(p float64) uint64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return uint64(p * float64(1<<63))
}

// mix is splitmix64-style avalanching over the (seed, set, position)
// coordinate.
func mix(seed, set, n uint64) uint64 {
	x := seed ^ set*0x9e3779b97f4a7c15 ^ n*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
