package serve

import (
	"net/http"
	"time"

	prometheus "repro"
)

// This file is the time side of the serving tier: per-request deadlines,
// the retry/backoff ladder, and the slow-key watchdog.
//
// # Deadlines
//
// A request's budget is fixed at admission: deadline = arrival +
// Config.RequestTimeout. The deadline is enforced at every point where the
// serving tier — not user code — holds the request:
//
//   - at delivery (the budget expired while the caller waited for the
//     role: resolve 504 without delegating),
//   - at the queue front (the delegate reached it after its set's earlier
//     work — a latency spike, a slow epoch-mate — consumed the
//     budget: resolve 504 without running the backend),
//   - inside the backend (ctx carries the deadline; an I/O-bound backend
//     returns a timeout error, which resolves 504 when the budget is gone
//     instead of feeding the retry ladder).
//
// What the deadline cannot do is preempt a non-cooperative in-process
// handler mid-run — Go has no goroutine cancellation — so a handler that
// ignores r.Context() runs to completion and its own request is answered
// late. The requests behind it are protected by queue-front shedding, and
// the key itself is taken out of service by the watchdog below.
//
// # Retries
//
// A backend failure (error return, not a panic) on an idempotent request
// is retried with capped exponential backoff plus deterministic jitter —
// but never inline on the delegate, which would hold the set hostage for
// the backoff duration. Instead the delegate arms a timer, which takes
// the role when it fires and delivers the job again: the retry is
// re-delegated through the key's serialization set like a fresh arrival,
// so per-key order is preserved across attempts by the same mechanism
// that ordered the first attempt. The budget bounds the ladder: a retry
// whose backoff would land past the deadline is not armed.
//
// # Slow-key watchdog
//
// Deadlines protect requests; the watchdog protects sets. A key whose
// backend services exceed Config.SlowThreshold slowTrips times in a row is
// degraded: its requests shed with 503 at delivery instead of queueing
// behind work that will blow their budgets anyway. Degradation is
// epoch-scoped like poisoning — the rotation that heals poisoned keys also
// gives degraded keys a fresh chance — and counted and exposed for
// operators. Its state lives on the key's Session, where per-set program
// order is the mutual exclusion (see watch).

// The retry ladder's backoff: retryBase doubles per attempt up to retryCap.
// slowTrips is the consecutive-slow-service count that degrades a key.
const (
	retryBase = 2 * time.Millisecond
	retryCap  = 250 * time.Millisecond
	slowTrips = 3
)

// retryable reports whether a failed attempt should be delivered again:
// the request must be idempotent, the attempt budget must remain, and the
// backoff must land inside the request's deadline (otherwise the retry
// would only burn a delegation to discover the 504).
func (s *Server) retryable(j *job, backoff time.Duration) bool {
	if j.attempt >= s.cfg.RetryMax {
		return false
	}
	if !idempotent(j.r) {
		return false
	}
	if !j.deadline.IsZero() && time.Now().Add(backoff).After(j.deadline) {
		return false
	}
	return true
}

// idempotent reports whether a request is safe to retry: bodyless-safe
// methods are, everything else only when the client marked the request
// idempotent explicitly with an Idempotency-Key header.
func idempotent(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return true
	}
	return r.Header.Get("Idempotency-Key") != ""
}

// backoffFor computes the capped exponential backoff for the job's NEXT
// attempt, with deterministic jitter in [0.5x, 1.5x) mixed from the
// request's (set, attempt) coordinate — no global RNG, so a replayed
// chaos profile replays its retry schedule too.
func (s *Server) backoffFor(j *job) time.Duration {
	d := retryBase << uint(j.attempt)
	if d > retryCap || d <= 0 { // d <= 0: shift overflow
		d = retryCap
	}
	h := prometheus.Mix64(j.set ^ prometheus.Mix64(uint64(j.attempt)))
	// Map the top 10 bits onto [0.5, 1.5).
	frac := 0.5 + float64(h>>54)/1024.0
	return time.Duration(float64(d) * frac)
}

// watch is the watchdog's step after a backend service of sess's key, on
// the context running its set: per-set order makes it the key's one writer.
// The slowTrips-th consecutive slow service in an epoch degrades the key.
func (s *Server) watch(sess *Session, d time.Duration) {
	if d < s.cfg.SlowThreshold {
		sess.slowRun = 0
		return
	}
	if sess.slowEpoch != s.epoch {
		sess.slowEpoch, sess.slowRun = s.epoch, 0
	}
	sess.slowRun++
	if sess.slowRun >= slowTrips && sess.degradedIn.Load() != s.epoch {
		sess.degradedIn.Store(s.epoch)
		s.degraded.Add(1)
		s.metrics.degradedKeys.Add(1)
	}
}
