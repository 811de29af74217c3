// Package serve is the serving tier: serialization sets as a
// session-affinity request router. Every request carries a key (user id,
// session, tenant); the key hashes to a serialization set; the handler for
// the request is delegated to that set. The model then gives the serving
// property for free: requests for one key execute in arrival order on one
// delegate at a time — per-key causal order with no per-session locks —
// while requests for different keys run concurrently across the delegate
// pool, rebalanced by the occupancy-aware whole-set stealer when the key
// distribution skews. A request that panics is contained by the engine:
// its key's set is poisoned for the rest of the isolation epoch (those
// requests fail fast with the fault attached) and every other key keeps
// serving.
//
// The router goroutine owns the runtime — it is the program context, the
// only goroutine that calls Runtime methods other than the any-goroutine
// query surface (Poisoned, SetErr, QueueDepths, Stats snapshots). HTTP
// handler goroutines talk to it through one bounded jobs channel and wait
// on a per-job done channel:
//
//	handler goroutine             router (program ctx)          delegate
//	  admission / rate gates
//	  jobs <- job ───────────────▶ DelegateTo(set, run) ───────▶ handler fn
//	  <-job.done ◀──────────────────────────────────────────────  finish
//
// Request lifecycle around faults. The delegated closure finishes the job
// from a deferred call, so a panicking handler still completes its own
// request (defers run during unwinding, before the engine's containment
// recover). A delegation raced by a poison landing between the router's
// check and the drain seam is dropped-but-counted by the engine and its
// done channel would never close; the router sweeps those at the next
// epoch rotation — after the EndIsolation barrier, every job the epoch
// delegated has either finished or was deterministically dropped, so the
// sweep is exact, not heuristic.
//
// Epochs rotate on a timer. Rotation is the serving tier's repair loop:
// the barrier proves the pool quiescent, dropped and expired jobs are
// swept to definitive answers, the stats snapshot is republished,
// BeginIsolation clears the poison table so a faulted key starts serving
// again (its fault records remain queryable), the slow-key watchdog
// heals, and the rate limiter evicts idle buckets. The rotation barrier
// briefly parks the router, so admission backpressure (bounded jobs
// channel, inflight budget) is what bounds the latency blip: everything
// accepted before the barrier is already in delegate queues, which the
// barrier itself drains.
//
// Between the router and the work it runs sits the robustness layer
// (backend.go, breaker.go, deadline.go): a pluggable Backend interface
// (in-process handlers, HTTP upstream proxies, chaos wrappers) optionally
// gated per backend by a circuit breaker behind a rotation Pool;
// per-request deadlines fixed at admission and enforced wherever the tier
// holds the request (delivery, queue front, backend context, epoch
// sweep — an expired request resolves to a definitive 504, never a parked
// done-channel); retry with capped jittered backoff for idempotent
// requests, re-delegated through the router so per-key order holds across
// attempts; and a slow-key watchdog that degrades a persistently-slow key
// to 503 sheds instead of letting it starve its set's epoch-mates.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	prometheus "repro"
	"repro/internal/durable"
)

// Session is the per-key state a handler mutates. All access happens
// inside delegated operations of the key's serialization set, so handlers
// never lock it: per-set program order is the mutual exclusion, and the
// delegation queues carry the happens-before edges between requests.
type Session struct {
	Key string // the request key this session serves
	Set uint64 // the serialization set the key hashed to
	Seq uint64 // requests executed on this session (incremented before the handler runs)

	// Data is scratch state for handlers (a tiny per-key KV).
	Data map[string]string
}

// Handler executes one request against its key's session, on a delegate
// context. It must not retain s or r beyond the call, must not call
// Runtime methods, and may panic: a panic is contained by the engine,
// fails this request with the fault attached, and poisons the key for the
// rest of the epoch while every other key keeps serving. When
// Config.RequestTimeout is set, r.Context() carries the request's
// deadline; a cooperative handler bounds its own work with it (an
// uncooperative one is handled by queue-front shedding and the slow-key
// watchdog instead — see deadline.go).
type Handler func(s *Session, r *http.Request) (status int, body string)

// Config parameterizes a Server.
type Config struct {
	// Delegates sets the runtime's INITIAL delegate-context pool size
	// (default GOMAXPROCS-1, the runtime's own default).
	Delegates int
	// MaxDelegates sets the pool capacity ceiling for live resizes
	// (runtime structures are pre-allocated to it). 0 fixes the pool at
	// Delegates: no autoscaling, /admin/resize rejected.
	MaxDelegates int
	// MinDelegates floors the autoscaler's scale-down (default 1). Manual
	// /admin/resize may go below it — the floor bounds the feedback loop,
	// not the operator.
	MinDelegates int
	// Autoscale enables the rotation-driven autoscaler: at each epoch
	// rotation the router folds mean delegate occupancy into an EWMA and
	// steps the pool ±1 delegate when it leaves the target band, clamped
	// to [MinDelegates, MaxDelegates], with AutoscaleCooldown rotations
	// between steps. Requires MaxDelegates.
	Autoscale bool
	// AutoscaleCooldown is the number of epoch rotations between resize
	// decisions (default 3) — resizes re-place owner state, so the band
	// check must see post-resize occupancy settle before stepping again.
	AutoscaleCooldown int
	// Shards sets the latency-metric shard count: a key's set is metered
	// under shard set%Shards, bounding metric cardinality under unbounded
	// keys. Default 8.
	Shards int
	// MaxInflight is the admission budget: requests admitted past the
	// gates and not yet answered. Above it requests are rejected with 503
	// before touching the runtime. Default 1024.
	MaxInflight int
	// QueueDepth bounds the handler→router jobs channel; a full channel
	// rejects with 503 (backpressure, never unbounded buffering).
	// Default MaxInflight.
	QueueDepth int
	// Rate and Burst configure the per-set token bucket, in
	// requests/second and requests. Rate 0 disables rate limiting.
	Rate  float64
	Burst float64
	// EpochInterval is the rotation period — the poison-repair and
	// dropped-job-sweep cadence. Default 100ms.
	EpochInterval time.Duration
	// DrainTimeout bounds Drain: how long to wait for inflight requests
	// before logging a straggler report (with the scheduler dump) and
	// terminating anyway. Default 5s.
	DrainTimeout time.Duration
	// RequestTimeout is the per-request budget, fixed at admission. A
	// request whose budget expires before its backend can run resolves to a
	// definitive 504 (at delivery, at the queue front, or at the epoch
	// sweep — see deadline.go); a backend running when it expires sees the
	// deadline on its context. 0 disables deadlines.
	RequestTimeout time.Duration
	// RetryMax caps retry attempts for idempotent requests after backend
	// failures (0 = no retries). Retries re-enter the router and are
	// re-delegated through the key's serialization set, preserving per-key
	// order across attempts.
	RetryMax int
	// RetryBase and RetryCap shape the capped exponential backoff between
	// attempts (base doubles per attempt, jittered ±50%, capped). Defaults
	// 2ms and 250ms.
	RetryBase time.Duration
	RetryCap  time.Duration
	// IdempotentFunc reports whether a request is safe to retry. Default:
	// GET/HEAD/OPTIONS, or any method carrying an Idempotency-Key header.
	IdempotentFunc func(r *http.Request) bool
	// SlowThreshold arms the slow-key watchdog: a key whose backend
	// services exceed it on SlowTrips consecutive requests is degraded —
	// shed with 503 at delivery — until an epoch rotation heals it. 0
	// disables the watchdog.
	SlowThreshold time.Duration
	// SlowTrips is the consecutive-slow-service count that degrades a key.
	// Default 3.
	SlowTrips int
	// Backend executes requests. Exactly one of Backend and Handler must
	// be set (Handler is shorthand for an in-process HandlerBackend); use
	// NewPool to gate several backends behind per-backend circuit
	// breakers.
	Backend Backend
	// Handler executes requests in-process; shorthand for
	// Backend: NewHandlerBackend("inprocess", Handler).
	Handler Handler
	// StateFS, when set, enables durable sessions: the session table is
	// snapshotted at every epoch rotation (write-behind, riding the
	// quiescent window the EndIsolation barrier proves), journaled between
	// rotations, and rebuilt from storage at the next New before admission
	// opens. Use durable.NewDirFS for a real state directory,
	// durable.NewMemFS in tests, chaos.WrapFS for fault drills. Nil
	// disables durability (sessions die with the process).
	StateFS durable.FS
	// Fsync is the journal's durability policy (see durable.FsyncPolicy):
	// FsyncOff buffers, FsyncRotation syncs once per epoch rotation
	// (bounding acked loss at one epoch), FsyncAlways syncs every append
	// (an acknowledged request is durable). Ignored without StateFS.
	Fsync durable.FsyncPolicy
	// NoJournal disables the intra-epoch journal: durability comes from
	// rotation snapshots alone, bounding loss at one epoch plus commit
	// latency regardless of Fsync. Ignored without StateFS.
	NoJournal bool
	// KeyFunc extracts the request key. Default: header "X-Session-Key",
	// else query parameter "key", else the client address.
	KeyFunc func(r *http.Request) string
	// Logf receives drain and straggler reports. Default: discard.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() error {
	if c.Handler == nil && c.Backend == nil {
		return fmt.Errorf("serve: one of Config.Handler and Config.Backend is required")
	}
	if c.Handler != nil && c.Backend != nil {
		return fmt.Errorf("serve: Config.Handler and Config.Backend are mutually exclusive")
	}
	if c.Backend == nil {
		c.Backend = NewHandlerBackend("inprocess", c.Handler)
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 250 * time.Millisecond
	}
	if c.IdempotentFunc == nil {
		c.IdempotentFunc = defaultIdempotent
	}
	if c.SlowTrips <= 0 {
		c.SlowTrips = 3
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxInflight
	}
	if c.EpochInterval <= 0 {
		c.EpochInterval = 100 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.KeyFunc == nil {
		c.KeyFunc = defaultKey
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Autoscale && c.MaxDelegates <= 0 {
		return fmt.Errorf("serve: Config.Autoscale requires Config.MaxDelegates")
	}
	if c.MinDelegates <= 0 {
		c.MinDelegates = 1
	}
	if c.MaxDelegates > 0 && c.MinDelegates > c.MaxDelegates {
		return fmt.Errorf("serve: Config.MinDelegates %d exceeds Config.MaxDelegates %d",
			c.MinDelegates, c.MaxDelegates)
	}
	if c.AutoscaleCooldown <= 0 {
		c.AutoscaleCooldown = 3
	}
	return nil
}

func defaultKey(r *http.Request) string {
	if k := r.Header.Get("X-Session-Key"); k != "" {
		return k
	}
	if k := r.URL.Query().Get("key"); k != "" {
		return k
	}
	return r.RemoteAddr
}

// Job outcomes, CAS-guarded: exactly one of the delegated operation, the
// router's fast-path finishes (poisoned, degraded, expired at delivery),
// and the epoch sweep wins, and the winner closes done.
const (
	outcomePending uint32 = iota
	outcomeServed         // backend produced a definitive answer (status/body are valid, including 502 on a non-retryable backend failure)
	outcomeFaulted        // handler panicked; fault contained, set poisoned
	outcomeDropped        // delegation dropped on a poisoned set (router fast path or engine seam + sweep)
	outcomeExpired        // request budget expired before the backend could answer (504)
	outcomeShed           // slow-key watchdog degraded the key (503)
)

type job struct {
	key      string
	set      uint64
	r        *http.Request
	status   int
	body     string
	outcome  atomic.Uint32
	done     chan struct{}
	start    time.Time
	deadline time.Time // zero = no budget (Config.RequestTimeout off)

	// attempt counts backend attempts already made. Written by the
	// delegate arming a retry, read by the router at redelivery; the retry
	// timer's channel send carries the happens-before edge.
	attempt int
	// retryArmed marks a job owned by its retry timer: not finished, not
	// in flight, waiting to re-enter the jobs channel. The epoch sweep
	// skips armed jobs (their delegation completed — the barrier proved
	// it — and the timer will re-deliver them); delivery clears the flag.
	retryArmed atomic.Bool
}

// finish resolves the job to outcome o exactly once; the winning caller
// closes done and wakes the handler goroutine.
func (j *job) finish(o uint32) bool {
	if j.outcome.CompareAndSwap(outcomePending, o) {
		close(j.done)
		return true
	}
	return false
}

// Server is the serving tier instance. Create with New, expose Handler()
// on an http.Server, stop with Drain.
type Server struct {
	cfg     Config
	metrics *metrics
	limiter *limiter
	slow    *slowTable // nil unless Config.SlowThreshold set

	jobs     chan *job
	inflight atomic.Int64
	draining atomic.Bool

	// Router-private state (program context only).
	rt        *prometheus.Runtime
	w         *prometheus.Writable[routerState]
	sessions  map[uint64]*Session
	epochJobs []*job

	// statsSnap republishes the router's Stats() snapshot at each
	// rotation so the any-goroutine metrics scrape never calls Stats
	// itself (Stats reads program-private counters).
	statsSnap atomic.Pointer[prometheus.Stats]

	// Autoscaler state. occEWMA and cooldown are router-private;
	// resizeTarget carries a manual /admin/resize target (0 = none) from
	// the handler to the router, which applies it at the next rotation —
	// engine reconfiguration stays on the program context's schedule even
	// when the request arrives on an arbitrary goroutine.
	occEWMA      float64
	cooldown     int
	resizeTarget atomic.Int64
	depthBuf     []uint64 // router-private QueueDepths scratch

	// Durability (see durability.go; all nil/zero without Config.StateFS).
	store      *durable.Store
	journal    atomic.Pointer[durable.Journal] // swapped by the router at capture
	snapGen    uint64                          // generation counter (router, then drain)
	dirty      atomic.Bool                     // a request executed since the last capture
	snapCh     chan snapCapture                // router → write-behind committer, capacity 1
	writerDone chan struct{}
	recovered  recoveryInfo // frozen before the router starts

	drainCh  chan chan struct{}
	routerWG chan struct{}
	killCh   chan struct{} // test hook: abrupt router death, no drain, no flush
}

// routerState is the Writable payload. Per-key state lives in Session
// objects the router threads through delegated closures; the wrapper
// exists to address the delegation API, so its object is empty.
type routerState struct{}

// New validates cfg, starts the router goroutine (which owns the runtime:
// the goroutine that calls Init is the program context), and returns once
// the first isolation epoch is open and the server is accepting work.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(cfg.Shards),
		jobs:     make(chan *job, cfg.QueueDepth),
		sessions: make(map[uint64]*Session),
		drainCh:  make(chan chan struct{}),
		routerWG: make(chan struct{}),
		killCh:   make(chan struct{}),
	}
	if cfg.Rate > 0 {
		s.limiter = newLimiter(cfg.Rate, cfg.Burst)
	}
	if cfg.SlowThreshold > 0 {
		s.slow = newSlowTable(cfg.SlowThreshold, cfg.SlowTrips)
	}
	if cfg.StateFS != nil {
		// Recovery runs here, before the router exists: the session table
		// must be rebuilt before the first request can be admitted, and a
		// state store that cannot take a boot snapshot refuses to start.
		if err := s.initDurability(); err != nil {
			return nil, err
		}
	}
	ready := make(chan struct{})
	go s.router(ready)
	<-ready
	return s, nil
}

// router is the program context: it creates the runtime, keeps an
// isolation epoch open, delegates jobs, rotates epochs on a timer, and
// performs the final drain. It is the only goroutine that calls Runtime
// methods outside the documented any-goroutine query surface.
func (s *Server) router(ready chan struct{}) {
	defer close(s.routerWG)
	opts := []prometheus.Option{
		prometheus.WithPolicy(prometheus.LeastLoaded),
		prometheus.WithStealing(),
	}
	if s.cfg.Delegates > 0 {
		opts = append(opts, prometheus.WithDelegates(s.cfg.Delegates))
	}
	if s.cfg.MaxDelegates > 0 {
		opts = append(opts, prometheus.WithMaxDelegates(s.cfg.MaxDelegates))
	}
	s.rt = prometheus.Init(opts...)
	s.w = prometheus.NewWritableSer(s.rt, routerState{}, prometheus.NullSerializer[routerState]())
	s.rt.BeginIsolation()
	st := s.rt.Stats()
	s.statsSnap.Store(&st)
	close(ready)

	tick := time.NewTicker(s.cfg.EpochInterval)
	defer tick.Stop()
	for {
		select {
		case j := <-s.jobs:
			s.deliver(j)
		case <-tick.C:
			s.rotate()
		case ack := <-s.drainCh:
			s.drainRouter()
			close(ack)
			return
		case <-s.killCh:
			// Test hook: die the way a SIGKILL would — no drain, no final
			// snapshot, no journal flush, runtime abandoned. What the
			// durability layer already pushed to its FS is all a successor
			// recovers; the journal's user-space buffer dies with us.
			return
		}
	}
}

// kill abruptly stops the router for crash-recovery tests. Unlike Drain it
// resolves nothing: inflight requests park forever, buffered journal bytes
// are lost, the runtime leaks. Call only from tests, at a quiescent point.
func (s *Server) kill() {
	close(s.killCh)
	<-s.routerWG
}

// deliver routes one job: deadline and degradation fast paths, poisoned
// fast path, session lookup, delegation. Handles both fresh arrivals and
// retry re-entries (retryArmed is cleared here — from this point the job
// is in flight again). Program context only.
func (s *Server) deliver(j *job) {
	j.retryArmed.Store(false)
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		// The budget expired while the job sat in the channel (or while a
		// retry backoff ran): resolve the 504 without paying a delegation.
		if j.finish(outcomeExpired) {
			s.metrics.expired.Add(1)
		}
		return
	}
	if s.rt.Poisoned(j.set) {
		// The epoch's poison landed before this job was delegated: fail it
		// now instead of paying the delegation just to drop it at a seam.
		if j.finish(outcomeDropped) {
			s.metrics.droppedJobs.Add(1)
		}
		return
	}
	if s.slow != nil && s.slow.degraded(j.set) {
		// The watchdog degraded this key: shed instead of queueing behind
		// work that would blow the budget anyway.
		if j.finish(outcomeShed) {
			s.metrics.shedDegraded.Add(1)
		}
		return
	}
	sess := s.sessions[j.set]
	if sess == nil {
		sess = &Session{Key: j.key, Set: j.set, Data: make(map[string]string)}
		s.sessions[j.set] = sess
	}
	s.epochJobs = append(s.epochJobs, j)
	s.w.DelegateTo(j.set, func(_ *prometheus.Ctx, _ *routerState) {
		s.execute(j, sess)
	})
}

// execute runs one job's backend attempt on a delegate context. It owns
// the job's resolution for this attempt: served (any definitive status,
// including a 502/503 rendered from a non-retryable backend failure),
// expired (queue-front shed or budget exhausted mid-backend), faulted
// (handler panic — the deferred check fires during unwinding, before the
// engine's containment recover, so the request completes AND the panic
// still poisons the set), or none of these because a retry timer was
// armed and the job will re-enter the router.
func (s *Server) execute(j *job, sess *Session) {
	start := time.Now()
	if !j.deadline.IsZero() && start.After(j.deadline) {
		// Queue-front shed: the set's earlier work (a latency spike, a slow
		// epoch-mate) consumed this request's budget before its turn came.
		// Resolving 504 here — without running the backend — is what keeps
		// one slow request from cascading into a wedged key.
		if j.finish(outcomeExpired) {
			s.metrics.expired.Add(1)
		}
		return
	}
	resolved := false
	defer func() {
		if !resolved {
			j.finish(outcomeFaulted)
		}
	}()
	ctx := context.Background()
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	sess.Seq++
	status, body, err := s.cfg.Backend.Serve(ctx, sess, j.r)
	elapsed := time.Since(start)
	if s.slow != nil && s.slow.observe(j.set, elapsed) {
		s.metrics.degradedKeys.Add(1)
	}
	if s.store != nil {
		// Journal the session's post-state before the request can resolve:
		// under FsyncAlways the record is durable before the ack goes out.
		// A panicking handler unwinds past this point, journaling nothing —
		// a faulted operation contributes no durable state, matching the
		// engine's "no partial side effects" containment contract.
		s.journalSession(sess)
		s.dirty.Store(true)
	}
	if err == nil {
		j.status, j.body = status, body
		resolved = true
		j.finish(outcomeServed)
		return
	}
	s.metrics.backendFailures.Add(1)
	resolved = true // the failure paths below all resolve or arm a retry; only a panic above leaves !resolved
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		// The budget died inside the backend (deadline-context timeout or a
		// failure that arrived at the boundary): this is a 504, not a 502,
		// and retrying is pointless.
		if j.finish(outcomeExpired) {
			s.metrics.expired.Add(1)
		}
		return
	}
	backoff := s.backoffFor(j)
	if s.retryable(j, backoff) {
		// Arm the retry OFF the delegate: backing off inline would hold the
		// set hostage. The timer re-enters the jobs channel, the router
		// re-delegates through the same set, and per-key order holds across
		// attempts by construction. retryArmed must be set before the timer
		// exists so the epoch sweep (which runs after the barrier proved
		// this operation finished) observes it.
		j.attempt++
		j.retryArmed.Store(true)
		s.metrics.retries.Add(1)
		time.AfterFunc(backoff, func() { s.jobs <- j })
		return
	}
	// Out of budget, attempts, or idempotency: render the failure.
	if errors.Is(err, ErrNoBackend) {
		j.status = http.StatusServiceUnavailable
		j.body = "no backend available\n"
	} else {
		j.status = http.StatusBadGateway
		j.body = fmt.Sprintf("backend failure after %d attempt(s): %v\n", j.attempt+1, err)
	}
	j.finish(outcomeServed)
}

// rotate closes the epoch and opens the next: the barrier proves the pool
// quiescent, the sweep resolves jobs whose delegations were dropped on a
// poison seam (their done channels would otherwise never close), the
// stats snapshot republishes, and BeginIsolation clears the poison table
// so faulted keys resume serving. Rotation is also the tier's maintenance
// cadence: the slow-key watchdog heals, and the rate limiter evicts idle
// buckets. Program context only.
func (s *Server) rotate() {
	// Occupancy is sampled BEFORE the barrier: the closing epoch's backlog
	// is the load signal, and the barrier is about to drain it to zero.
	occ := s.sampleOccupancy()
	s.rt.EndIsolation()
	s.sweepEpochJobs()
	s.epochJobs = s.epochJobs[:0]
	if s.slow != nil {
		s.slow.heal()
	}
	if s.limiter != nil {
		s.metrics.bucketsEvicted.Add(uint64(s.limiter.sweep(time.Now())))
	}
	// The barrier just proved the pool quiescent: no delegate is mutating
	// any Session, so this window is a consistent cut across every key —
	// where the durable-session capture rides (see durability.go).
	s.rotateDurable()
	// Record any resize intent now; the BeginIsolation below is the epoch
	// boundary that applies it, so `ss_delegates` moves on this rotation.
	s.maybeResize(occ)
	s.rt.BeginIsolation()
	st := s.rt.Stats()
	s.statsSnap.Store(&st)
}

// Autoscaler band: mean outstanding operations per active delegate. Above
// the high mark the pool is queueing (scale up); below the low mark with
// more than the floor active, delegates are idling (scale down). The gap
// between the marks is the hysteresis that keeps a steady load from
// oscillating the pool.
const (
	autoscaleHighOcc = 2.0
	autoscaleLowOcc  = 0.5
	// autoscaleAlpha is the occupancy EWMA's smoothing weight per
	// rotation: heavy enough that a one-rotation burst does not resize the
	// pool, light enough that a sustained phase shift crosses the band
	// within a few rotations.
	autoscaleAlpha = 0.5
)

// sampleOccupancy returns the closing epoch's mean per-delegate load:
// outstanding delegated operations plus jobs still waiting in the channel,
// over the active pool. Program context, pre-barrier.
func (s *Server) sampleOccupancy() float64 {
	n := s.rt.ActiveDelegates()
	if n == 0 {
		return 0
	}
	s.depthBuf = s.rt.QueueDepths(s.depthBuf[:0])
	var sum uint64
	for _, d := range s.depthBuf {
		sum += d
	}
	return (float64(sum) + float64(len(s.jobs))) / float64(n)
}

// maybeResize is the rotation-driven scaling decision: a manual
// /admin/resize target always wins and resets the cooldown; otherwise,
// with Autoscale on, the occupancy EWMA is stepped and compared against
// the band. Resizes are single steps with a cooldown measured in
// rotations — the engine applies them at epoch boundaries, so each step's
// effect is observable before the next decision. Program context only.
func (s *Server) maybeResize(occ float64) {
	if tgt := s.resizeTarget.Swap(0); tgt > 0 {
		if err := s.rt.Resize(int(tgt)); err != nil {
			s.cfg.Logf("serve: manual resize to %d rejected: %v", tgt, err)
		} else {
			s.cooldown = s.cfg.AutoscaleCooldown
		}
		return
	}
	if !s.cfg.Autoscale {
		return
	}
	s.occEWMA += autoscaleAlpha * (occ - s.occEWMA)
	if s.cooldown > 0 {
		s.cooldown--
		return
	}
	active := s.rt.ActiveDelegates()
	target := active
	switch {
	case s.occEWMA > autoscaleHighOcc && active < s.cfg.MaxDelegates:
		target = active + 1
	case s.occEWMA < autoscaleLowOcc && active > s.cfg.MinDelegates:
		target = active - 1
	}
	if target == active {
		return
	}
	if err := s.rt.Resize(target); err != nil {
		s.cfg.Logf("serve: autoscale to %d rejected: %v", target, err)
		return
	}
	s.cooldown = s.cfg.AutoscaleCooldown
}

// sweepEpochJobs resolves every job the closed epoch left pending. Runs
// after the EndIsolation barrier, which proves each delegated operation
// either executed or was deterministically dropped on a poison seam — so
// a still-pending job here is either (a) dropped (500), or (b) armed for
// retry (skipped: its operation DID execute, the arming is why it has no
// outcome, and its timer owns re-delivery). A dropped job whose budget
// has also expired resolves 504, not 500: the deadline is the promise the
// tier made first, and "definitive 504 at the epoch sweep, never a parked
// done-channel" is the deadline contract's backstop. Program context only.
func (s *Server) sweepEpochJobs() {
	now := time.Now()
	for _, j := range s.epochJobs {
		if j.retryArmed.Load() {
			continue
		}
		if !j.deadline.IsZero() && now.After(j.deadline) {
			if j.finish(outcomeExpired) {
				s.metrics.expired.Add(1)
			}
			continue
		}
		if j.finish(outcomeDropped) {
			s.metrics.droppedJobs.Add(1)
		}
	}
}

// drainRouter is the router's shutdown path: keep serving until every
// admitted request is answered (admission is already closed, so inflight
// only shrinks), then barrier, sweep, and terminate. The admission
// handshake makes the inflight wait sound: a handler that passed the
// draining check raised the inflight counter BEFORE loading the flag
// (sequentially-consistent order: its Add precedes its false Load, which
// precedes Drain's Store, which precedes every Load below), so no request
// can slip in behind an observed zero. If stragglers outlast
// Config.DrainTimeout their count and the scheduler-ledger dump are
// logged — the dump reads program-private counters, which is why this
// wait runs on the router and not in Drain — and the wait then CONTINUES:
// abandoning it would drop accepted requests, the one thing drain exists
// to prevent. A handler operation that never returns therefore wedges the
// drain (as it would wedge the shutdown barrier); the straggler report is
// the diagnosis, and the Watchdog option turns the wedge itself into one.
func (s *Server) drainRouter() {
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	warned := false
	tick := time.NewTicker(s.cfg.EpochInterval)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		if !warned && time.Now().After(deadline) {
			warned = true
			s.cfg.Logf("serve: drain timeout: %d requests still inflight\n%s",
				s.inflight.Load(), s.rt.SchedDump())
		}
		select {
		case j := <-s.jobs:
			s.deliver(j)
		case <-tick.C:
			// Keep rotating while waiting: the epoch sweep is what resolves
			// jobs whose delegations were dropped on a poison seam, and a
			// handler parked on one of those counts as inflight.
			s.rotate()
		case <-time.After(time.Millisecond):
		}
	}
	for {
		select {
		case j := <-s.jobs:
			s.deliver(j)
			continue
		default:
		}
		break
	}
	s.rt.EndIsolation()
	s.sweepEpochJobs()
	s.epochJobs = nil
	st := s.rt.Stats()
	s.statsSnap.Store(&st)
	// Final barrier passed: the table is quiescent forever. Persist it
	// synchronously — a clean drain is lossless under every fsync policy.
	s.drainDurable()
	s.rt.Terminate()
}

// Drain gracefully stops the server: admission closes (new requests get
// 503), every admitted request is served to completion, the router runs
// its final barrier — sweeping any poison-dropped jobs — and terminates
// the runtime. Call after the HTTP listener has stopped accepting new
// connections; call once.
func (s *Server) Drain() error {
	s.draining.Store(true)
	ack := make(chan struct{})
	s.drainCh <- ack
	<-ack
	<-s.routerWG
	if n := s.inflight.Load(); n > 0 {
		return fmt.Errorf("serve: drained with %d requests unanswered", n)
	}
	return nil
}

// Stats returns the most recent epoch-rotation snapshot of the runtime
// counters. Safe from any goroutine.
func (s *Server) Stats() prometheus.Stats { return *s.statsSnap.Load() }

// ActiveDelegates reports the live delegate-pool size. Safe from any
// goroutine; moves only at epoch rotations.
func (s *Server) ActiveDelegates() int { return s.rt.ActiveDelegates() }
