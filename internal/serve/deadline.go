package serve

import (
	"net/http"
	"sync"
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
//     work — a latency spike upstream, a slow epoch-mate — consumed the
//     budget: resolve 504 without running the backend),
//   - inside the backend (ctx carries the deadline; an I/O-bound backend
//     returns a timeout error, which resolves 504 when the budget is gone
//     instead of feeding the retry ladder),
//   - at the epoch sweep (the delegation was dropped on a poison seam and
//     the budget has expired: the post-barrier sweep resolves 504, the
//     "definitive answer, never a parked caller" guarantee).
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
// requests are persistently slow (Config.SlowThreshold exceeded on
// slowTrips consecutive services) is degraded: subsequent requests
// shed with 503 at delivery instead of queueing behind work that will
// blow their budgets anyway. Degradation is epoch-scoped like poisoning —
// the rotation that heals poisoned keys also gives degraded keys a fresh
// chance — and the shed is counted and exposed so a persistently-degraded
// key is visible to operators.

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

// slowTable tracks per-set service times for the watchdog. Delegates feed
// it after every backend call (observe); the role holder consults it at
// delivery (degraded) and clears it at every rotation (heal) — the same
// epoch-scoped repair discipline as poisoning. Lock-sharded like the rate
// limiter: delegates for different sets collide only on a shard mutex.
type slowTable struct {
	threshold time.Duration // a service slower than this is one strike
	trips     int           // consecutive strikes that degrade the key
	shards    [slowShards]slowShard
}

const slowShards = 16

type slowShard struct {
	mu sync.Mutex
	m  map[uint64]*slowEntry
}

type slowEntry struct {
	consec   int  // consecutive over-threshold services
	degraded bool // shedding until the next heal
}

func newSlowTable(threshold time.Duration, trips int) *slowTable {
	t := &slowTable{threshold: threshold, trips: trips}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*slowEntry)
	}
	return t
}

// observe records one service time for set; called from delegate contexts.
// Returns true when this observation degraded the key.
func (t *slowTable) observe(set uint64, d time.Duration) bool {
	sh := &t.shards[set%slowShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[set]
	if d < t.threshold {
		if e != nil {
			e.consec = 0
		}
		return false
	}
	if e == nil {
		e = &slowEntry{}
		sh.m[set] = e
	}
	e.consec++
	if !e.degraded && e.consec >= t.trips {
		e.degraded = true
		return true
	}
	return false
}

// degraded reports whether set is currently shed; called at delivery.
func (t *slowTable) degraded(set uint64) bool {
	sh := &t.shards[set%slowShards]
	sh.mu.Lock()
	e := sh.m[set]
	d := e != nil && e.degraded
	sh.mu.Unlock()
	return d
}

// heal clears the table at an epoch rotation: degraded keys get a fresh
// chance (a still-slow key re-trips within the new epoch), and dropping
// the entries outright bounds the table under unbounded key cardinality —
// the same reasoning as the rate limiter's idle-bucket sweep.
func (t *slowTable) heal() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
}

// degradedCount reports how many keys are currently shed, for /healthz and
// the metrics gauge.
func (t *slowTable) degradedCount() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.degraded {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
