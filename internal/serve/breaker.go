package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Circuit-breaker states. The zero value is closed — a fresh backend is in
// rotation.
//
//	closed ──(threshold consecutive failures)──▶ open
//	open ──(cooldown elapses; next request becomes the probe)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed   (back in rotation)
//	half-open ──(probe fails)────▶ open      (cooldown restarts)
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName renders a breaker state for /metrics labels and reports.
func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-backend circuit breaker with consecutive-failure
// tracking and half-open probing. Delegate contexts call allow/onSuccess/
// onFailure concurrently (different sets execute on different delegates),
// so the state machine runs under one mutex; the serving path pays that
// lock only when a pool actually routes to the backend, never on the
// admission fast path.
//
// The half-open state admits exactly ONE request — the probe. Everything
// else is denied until the probe resolves: a success closes the breaker
// (the backend returns to rotation at full traffic), a failure reopens it
// and restarts the cooldown. Admitting a single probe instead of a
// fraction keeps a still-sick backend from absorbing a thundering herd at
// every cooldown boundary.
type breaker struct {
	mu       sync.Mutex
	state    int32
	consec   int       // consecutive failures observed in the closed state
	openedAt time.Time // when the breaker last opened (cooldown anchor)
	probing  bool      // half-open: the single probe slot is taken

	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // open duration before a half-open probe

	opens  atomic.Uint64 // times the breaker transitioned closed/half-open -> open
	denied atomic.Uint64 // requests short-circuited while open or probing
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may be sent to the gated backend. In the
// open state the first call after the cooldown transitions to half-open
// and claims the probe slot; the caller MUST report the outcome via
// onSuccess, onFailure or onPanic, or the breaker stays probing forever.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			b.denied.Add(1)
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			b.denied.Add(1)
			return false
		}
		b.probing = true
		return true
	}
}

// onSuccess records a successful call: it resets the consecutive-failure
// count and, from half-open, closes the breaker — the backend is healthy
// again and returns to rotation.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	b.consec = 0
	if b.state == breakerHalfOpen {
		b.state = breakerClosed
		b.probing = false
	}
	b.mu.Unlock()
}

// onFailure records a failed call: in the closed state it counts toward
// the threshold and opens the breaker when reached; from half-open the
// failed probe reopens immediately and the cooldown restarts.
func (b *breaker) onFailure(now time.Time) {
	b.mu.Lock()
	switch b.state {
	case breakerClosed:
		b.consec++
		if b.consec >= b.threshold {
			b.reopen(now)
		}
	case breakerHalfOpen:
		b.reopen(now)
	default: // already open: a straggling in-flight call resolved late
	}
	b.mu.Unlock()
}

// onPanic records a call that panicked: nothing while closed (a panic is a
// handler bug, not backend health), a failed probe from half-open.
func (b *breaker) onPanic(now time.Time) {
	b.mu.Lock()
	if b.state == breakerHalfOpen {
		b.reopen(now)
	}
	b.mu.Unlock()
}

// reopen opens the breaker and restarts its cooldown. Holds b.mu.
func (b *breaker) reopen(now time.Time) {
	b.state, b.openedAt, b.probing = breakerOpen, now, false
	b.opens.Add(1)
}

// snapshot returns the state and consecutive-failure count for metrics and
// health reporting.
func (b *breaker) snapshot() (state int32, consec int) {
	b.mu.Lock()
	state, consec = b.state, b.consec
	b.mu.Unlock()
	return state, consec
}
