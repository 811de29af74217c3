// Package serve is the serving tier: serialization sets as a
// session-affinity request router. Every request carries a key (user id,
// session, tenant); the key hashes to a serialization set; the handler for
// the request is delegated to that set. The model then gives the serving
// property for free: requests for one key execute in arrival order on one
// delegate at a time — per-key causal order with no per-session locks —
// while requests for different keys run concurrently across the delegate
// pool, rebalanced by the occupancy-aware whole-set stealer when the key
// distribution skews. A request that panics is contained by the tier: its
// key is poisoned for the rest of the epoch (its requests fail fast with
// the fault attached) and every other key keeps serving.
//
// The program context is a role, not a goroutine: whoever holds
// Server.role is the runtime's one producer and the only caller of Runtime
// methods outside the any-goroutine query surface (backlogs, pool size,
// Stats snapshots). A request's own goroutine takes the role after the
// admission gate, delegates its job, releases the role and waits for the
// job's done signal — two goroutine hand-offs per request:
//
//	handler goroutine (holds the role to delegate)        delegate
//	  inflight gate; job from the pool
//	  role.Lock → deliver → DelegateTo(set, job.run) ───▶ handler fn
//	  role.Unlock; <-job.done ◀──────────────────────────  finish
//	  read the answer; job back to the pool
//
// The rotation timer, a retry timer's re-delivery, and Drain's final
// barrier each take the same role for their step. The mutex is the
// happens-before edge between successive holders, so the engine still sees
// one program context (its program lane stays single-producer), and per-key
// order is role-acquisition order.
//
// A job's life. The tier's own request path allocates nothing in steady
// state: a job comes from a sync.Pool carrying its done signal (a
// capacity-1 channel) and its delegation callback, both built once. Every
// request has exactly one resolver: a delivery fast path under the role
// (expired, poisoned, degraded, rate-limited), or its own delegated
// operation, which answers it or arms a retry timer that delivers it
// again. The resolver writes the outcome and the answer and sends the one
// signal, and the send publishes them. From delivery until that send the
// job belongs to whichever of the role holder, the delegate running it, or
// its retry timer has it; after the send nothing but the waiting handler
// goroutine may touch it. That goroutine consumes the signal, reads the
// answer out and puts the job back.
//
// Request lifecycle around faults. The delegated operation contains its
// handler's panic itself: its deferred recover stores the fault on the
// key's Session, stamps the Session as poisoned in this epoch, and
// answers its own request with a 500 that carries the fault.
// Later requests for the key get the same 500 without running: at
// delivery, under the role, or at the queue front for those already
// delegated behind the faulting one, which per-set program order runs
// after it. No operation of the tier panics into the engine, so the engine
// never drops one of its delegations and no request waits for a rotation
// to be answered.
//
// Epochs rotate on a timer. Rotation is the serving tier's repair loop:
// the barrier proves the pool quiescent and the epoch advances, so keys
// poisoned or degraded in the closing epoch serve again (a new watchdog
// epoch also restarts slow runs), and the stats snapshot is republished.
// Nothing is swept: every request already has its resolver. A rotation
// holds the role across its barrier, so callers wait on the mutex
// meanwhile; what bounds that blip, and overload generally, is the
// inflight budget (requests past it are refused before they touch the
// role) and the bounded program lane a role holder blocks on when a
// delegate falls behind: one 256-slot ring, since a stealing runtime keeps
// the one-ring program lane. Everything delegated before the barrier is
// already in delegate queues, which the barrier itself drains.
//
// Between the role holder and the work it delegates sits the robustness
// layer (backend.go, breaker.go, deadline.go): a pluggable Backend
// interface (in-process handlers, HTTP upstream proxies, chaos wrappers)
// optionally gated per backend by a circuit breaker behind a rotation Pool;
// per-request deadlines fixed at admission and enforced wherever the tier
// holds the request (delivery, queue front, backend context — an expired
// request resolves to a definitive 504, never a parked caller); retry with
// capped jittered backoff for idempotent requests, re-delegated under the
// role so per-key order holds across attempts; and a slow-key watchdog
// that degrades a persistently-slow key to 503 sheds instead of letting it
// starve its set's epoch-mates.
//
// Config carries only what a caller chooses. The rest of the tier's shape
// is constants: the token bucket on each key's Session holds rateBurst (10)
// requests, retry backoff doubles from retryBase (2ms) to retryCap (250ms)
// for the requests idempotent accepts, the watchdog degrades a key after
// slowTrips (3) slow services, latency is metered over latencyShards (8)
// set shards, and Drain reports stragglers after DrainTimeout (5s).
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
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

	// Durable-capture bookkeeping (see durability.go). stamp is the capture
	// interval this session was last listed in, written by whichever context
	// runs the key's set; slot is its index+1 in the snapshot writer's
	// table, assigned under the role at its first capture (0 = none yet).
	stamp uint32
	slot  uint32

	// Per-epoch state, so never encoded: the slow-key watchdog's slow run,
	// its epoch, and the epoch the key was degraded in (deadline.go); and
	// the epoch a handler panic poisoned the key in, with that panic's
	// fault (see contain). The stamps are read by delivery, hence atomic;
	// 0 = never. fault is written before poisonedIn and read only after
	// observing poisonedIn == the current epoch, so the stamp publishes it;
	// execute clears a stale one when the key next runs.
	slowRun, slowEpoch uint32
	degradedIn         atomic.Uint32
	poisonedIn         atomic.Uint32
	fault              *prometheus.PanicError

	// Token bucket for Config.Rate, touched only by the role holder at
	// delivery and never encoded (see takeToken): the time, since
	// rateClock, at which the bucket is full again. The zero value is a
	// full bucket, so new and recovered sessions need no set-up.
	fullAt time.Duration
}

// rateBurst is the token bucket's capacity: a key may spend this many
// requests at once before Config.Rate paces it.
const rateBurst = 10

// rateClock is the origin of Session.fullAt: one monotonic reading, so a
// bucket's timestamp fits in a Duration.
var rateClock = time.Now()

// takeToken spends one of the session's tokens if it has one. The bucket
// refills at rate tokens a second up to rateBurst, so at now it holds
// rateBurst minus (fullAt-now)·rate tokens; spending one moves fullAt a
// token's worth of time, 1/rate, later. now is read by the role holder, so
// refill never sees time run backwards. Holds the role.
func (sess *Session) takeToken(now time.Duration, rate float64) bool {
	fullAt := max(sess.fullAt, now)
	if (fullAt-now).Seconds()*rate > rateBurst-1 {
		return false
	}
	sess.fullAt = fullAt + time.Duration(float64(time.Second)/rate)
	return true
}

// Handler executes one request against its key's session, on a delegate
// context. It must not retain s or r beyond the call, must not call
// Runtime methods, and may panic: a panic is contained by the tier,
// fails this request with the fault attached, and poisons the key for the
// rest of the epoch while every other key keeps serving. When
// Config.RequestTimeout is set, r is a copy of the request whose
// r.Context() carries the request's deadline (and not the client's
// cancellation); a cooperative handler bounds its own work with it (an
// uncooperative one is handled by queue-front shedding and the slow-key
// watchdog instead — see deadline.go). Without a RequestTimeout r is the
// caller's own request, r.Context() included.
type Handler func(s *Session, r *http.Request) (status int, body string)

// Config parameterizes a Server: only what a caller chooses. The rest of
// the tier's shape is constants, named in the package comment.
type Config struct {
	// Delegates sets the runtime's delegate-context pool size, fixed for
	// the server's life (default GOMAXPROCS-1, the runtime's own default).
	Delegates int
	// MaxInflight is the admission budget: requests admitted and not yet
	// answered. At it requests are rejected with 503 before touching the
	// role or the runtime — with the bounded program lane a role holder
	// blocks on, this is what bounds the tier under overload. The default
	// of 1024 is above the lane's 256 slots, so a delegate that falls
	// behind parks the role holder before admission refuses anyone.
	// Default 1024.
	MaxInflight int
	// Rate configures each key's token bucket, in requests/second; the
	// bucket holds rateBurst (10) requests. It lives on the key's Session
	// and is checked at delivery, under the role: a request's first attempt
	// spends one token (a retry spends none) or is answered 429. Buckets are
	// not persisted, so a restart refills them. Rate 0 disables rate
	// limiting.
	Rate float64
	// EpochInterval is the rotation period — the cadence at which poisoned
	// and degraded keys heal. Default 100ms.
	EpochInterval time.Duration
	// RequestTimeout is the per-request budget, fixed at admission. A
	// request whose budget expires before its backend can run resolves to a
	// definitive 504 (at delivery or at the queue front — see deadline.go);
	// a backend running when it expires sees the deadline on its context.
	// 0 disables deadlines.
	RequestTimeout time.Duration
	// RetryMax caps retry attempts for idempotent requests (see idempotent)
	// after backend failures (0 = no retries). The backoff starts at
	// retryBase (2ms), doubles per attempt, is jittered ±50% and capped at
	// retryCap (250ms). A retry's timer takes the role and re-delegates
	// through the key's serialization set, preserving per-key order across
	// attempts.
	RetryMax int
	// SlowThreshold arms the slow-key watchdog: a key whose backend
	// services exceed it on slowTrips (3) consecutive requests is degraded —
	// shed with 503 at delivery — until an epoch rotation heals it. 0
	// disables the watchdog.
	SlowThreshold time.Duration
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
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.EpochInterval <= 0 {
		c.EpochInterval = 100 * time.Millisecond
	}
	if c.KeyFunc == nil {
		c.KeyFunc = defaultKey
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
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

// outcome is how a request was resolved; its resolver writes it before
// the done send (see job).
type outcome uint8

const (
	outcomeServed   outcome = iota // backend produced a definitive answer (status/body are valid, including 502 on a non-retryable backend failure)
	outcomeFaulted                 // the handler panicked; fault contained, key poisoned
	outcomePoisoned                // the key was poisoned earlier this epoch: answered unrun (delivery or queue front)
	outcomeExpired                 // request budget expired before the backend could answer (504)
	outcomeShed                    // slow-key watchdog degraded the key (503)
	outcomeLimited                 // the key's token bucket was empty at delivery (429)
)

// job is one request's passage through the tier. Jobs are pooled
// (Server.jobs): ServeHTTP takes one, fills the request fields, and recycles
// it after reading the answer, so the done signal and the delegation
// callback are built once per pooled job, not once per request.
type job struct {
	key      string
	set      uint64
	r        *http.Request
	sess     *Session // the key's session, set by delivery before delegating
	status   int
	body     string
	fault    *prometheus.PanicError // the fault a 500 carries (outcomeFaulted, outcomePoisoned)
	outcome  outcome
	start    time.Time
	deadline time.Time // zero = no budget (Config.RequestTimeout off)

	// done carries the one signal of a request: its one resolver sends it
	// after writing the outcome and the answer, and the waiter consumes it
	// before it recycles the job — capacity 1, never closed, empty in the
	// pool.
	done chan struct{}
	// run is the delegated operation, s.execute(c, j), built once when the
	// pool makes the job.
	run func(*prometheus.Ctx, *struct{})

	// attempt counts backend attempts already made. Written by the
	// delegate arming a retry, read at redelivery; starting the retry timer
	// carries the happens-before edge.
	attempt int
}

// finish resolves the job to outcome o and wakes the handler goroutine,
// which may recycle the job at once — the caller must not touch j
// afterwards. Only the request's one resolver calls it.
func (j *job) finish(o outcome) {
	j.outcome = o
	j.done <- struct{}{}
}

// newJob is the job pool's constructor.
func (s *Server) newJob() any {
	j := &job{done: make(chan struct{}, 1)}
	j.run = func(c *prometheus.Ctx, _ *struct{}) { s.execute(c, j) }
	return j
}

// recycle returns an answered job to the pool, with the request fields
// dropped so the pool pins no request and no fault.
func (s *Server) recycle(j *job) {
	j.key, j.r, j.sess, j.body, j.fault = "", nil, nil, "", nil
	j.status, j.attempt = 0, 0
	j.deadline = time.Time{}
	s.jobs.Put(j)
}

// Server is the serving tier instance. Create with New, expose Handler()
// on an http.Server, stop with Drain.
type Server struct {
	cfg     Config
	metrics *metrics

	// inflight is the admission word: the number of requests admitted and
	// not yet answered, plus drainingBit once Drain has closed admission.
	// One word, moved by CAS, so a refused request never touches it and
	// the count Drain waits on is exact. idle is closed by the request
	// that takes the count to zero after admission closed.
	inflight atomic.Int64
	idle     chan struct{}

	// jobs pools request jobs (see job); New is s.newJob.
	jobs sync.Pool

	// role is the program context: its holder is the runtime's one
	// producer. This group is touched only while holding it (rt and w are
	// set once in New; the any-goroutine queries of rt need no role).
	role     sync.Mutex
	rt       *prometheus.Runtime
	w        *prometheus.Writable[struct{}] // stateless: it only addresses the delegation API
	sessions map[uint64]*Session
	rotTimer *time.Timer  // fires tick every Config.EpochInterval
	stopped  bool         // Drain or kill ran: no more rotations or deliveries
	snapGen  uint64       // durability: snapshot generation counter
	epoch    uint32       // serve epoch, from 1; moves like stamp, in rotate
	degraded atomic.Int32 // keys the watchdog degraded this epoch
	poisoned atomic.Int32 // keys a handler panic poisoned this epoch

	// statsSnap republishes the role holder's Stats() snapshot at each
	// rotation so the any-goroutine metrics scrape never calls Stats
	// itself (Stats reads program-private counters).
	statsSnap atomic.Pointer[prometheus.Stats]

	// Durability (see durability.go; all nil/zero without Config.StateFS).
	// ctxs, stamp and slots follow the capture discipline described there:
	// touched under the role in the quiescent window, and between windows
	// ctxs[i] by execution context i alone and stamp read-only.
	store      *durable.Store
	journal    atomic.Pointer[durable.Journal] // swapped under the role at capture
	ctxs       []ctxState                      // per execution context, sized NumContexts
	stamp      uint32                          // current capture interval (see Session.stamp)
	slots      uint32                          // writer-table slots assigned so far
	recordHint int                             // mean bytes per listed session at the last hand-off
	snapCh     chan snapDelta                  // rotation → write-behind writer, capacity 1
	writerDone chan struct{}
	recovered  recoveryInfo // frozen before New returns
	// cutHook, when a test sets it (under the role), runs at every
	// hand-off with the generation being captured. Holds the role.
	cutHook func(gen uint64)
}

// drainingBit is set in Server.inflight once admission has closed.
const drainingBit = 1 << 62

// DrainTimeout is how long Drain waits for inflight requests before it
// logs a straggler report (with the scheduler dump) and keeps waiting. A
// listener shutdown in front of Drain is sized from it.
const DrainTimeout = 5 * time.Second

// New validates cfg, rebuilds durable state, starts the runtime with an
// isolation epoch open and the rotation timer armed, and returns a server
// that is accepting work. It holds the role while it builds, so the first
// rotation or request to take it sees a complete server.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		sessions: make(map[uint64]*Session),
		idle:     make(chan struct{}),
		epoch:    1,
	}
	s.jobs.New = s.newJob
	if cfg.StateFS != nil {
		// Recovery runs first: the session table must be rebuilt before the
		// first request can be admitted, and a state store that cannot take
		// a boot snapshot refuses to start.
		if err := s.initDurability(); err != nil {
			return nil, err
		}
	}
	opts := []prometheus.Option{prometheus.WithStealing()}
	if cfg.Delegates > 0 {
		opts = append(opts, prometheus.WithDelegates(cfg.Delegates))
	}
	s.role.Lock()
	defer s.role.Unlock()
	s.rt = prometheus.Init(opts...)
	s.ctxs = make([]ctxState, s.rt.NumContexts())
	s.w = prometheus.NewWritableSer(s.rt, struct{}{}, prometheus.NullSerializer[struct{}]())
	s.rt.BeginIsolation()
	s.publishStats()
	s.rotTimer = time.AfterFunc(cfg.EpochInterval, s.tick)
	return s, nil
}

// tick is the rotation timer's body: take the role, re-arm, rotate. It
// re-arms before rotating so the period is EpochInterval, not EpochInterval
// plus the rotation. Callers cannot starve it: a sync.Mutex waiter that
// has waited a millisecond is handed the lock ahead of new arrivals.
func (s *Server) tick() {
	s.role.Lock()
	defer s.role.Unlock()
	if s.stopped {
		return
	}
	s.rotTimer.Reset(s.cfg.EpochInterval)
	s.rotate()
}

// kill abruptly stops the server for crash-recovery tests, the way a
// SIGKILL would: no drain, no final snapshot, no journal flush, runtime
// abandoned. Inflight requests park forever, and what the durability layer
// already pushed to its FS is all a successor recovers. Call only from
// tests.
func (s *Server) kill() {
	s.role.Lock()
	s.rotTimer.Stop()
	s.stopped = true
	s.role.Unlock()
}

// enter takes the role for one delivery: a request's own goroutine after
// admission, or a retry timer.
func (s *Server) enter(j *job) {
	s.role.Lock()
	s.deliver(j)
	s.role.Unlock()
}

// deliver routes one job: the expired fast path, session lookup, the
// per-key gates read from the Session (poisoned, degraded, then rate),
// delegation. Handles both fresh arrivals and retry re-entries. Holds the
// role.
func (s *Server) deliver(j *job) {
	if s.stopped {
		return // only after kill: Drain stops once nothing is left to deliver
	}
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		// The budget expired while the caller waited for the role (or while
		// a retry backoff ran): resolve the 504 without paying a delegation.
		s.metrics.expired.Add(1)
		j.finish(outcomeExpired)
		return
	}
	sess := s.sessions[j.set]
	switch {
	case sess == nil:
		sess = &Session{Key: j.key, Set: j.set, Data: make(map[string]string)}
		s.sessions[j.set] = sess
		if s.store != nil {
			// A new session is part of the live table from here on, executed
			// or not: list it on the role holder's own context.
			s.markWritten(s.rt.ProgramCtx().ID(), sess)
		}
	case sess.poisonedIn.Load() == s.epoch:
		// A handler panicked on this key earlier in the epoch: fail with
		// its fault instead of paying a delegation.
		s.drop(j, sess)
		return
	case sess.degradedIn.Load() == s.epoch:
		// The watchdog degraded this key: shed instead of queueing behind
		// work that would blow the budget anyway.
		s.metrics.shedDegraded.Add(1)
		j.finish(outcomeShed)
		return
	}
	if j.attempt == 0 && s.cfg.Rate > 0 && !sess.takeToken(time.Since(rateClock), s.cfg.Rate) {
		// The key spent its bucket: 429 without paying a delegation. Only a
		// first attempt spends a token; a retry already paid with it.
		j.finish(outcomeLimited)
		return
	}
	j.sess = sess
	s.w.DelegateTo(j.set, j.run)
}

// drop answers a request for a key poisoned earlier this epoch, unrun,
// with the fault that poisoned it: at delivery under the role, or at the
// queue front on the context running the key's set. The caller has seen
// sess.poisonedIn == s.epoch, which publishes sess.fault.
func (s *Server) drop(j *job, sess *Session) {
	j.fault = sess.fault
	s.metrics.droppedJobs.Add(1)
	j.finish(outcomePoisoned)
}

// execute runs one job's backend attempt on a delegate context. It owns
// the job's resolution for this attempt: served (any definitive status,
// including a 502/503 rendered from a non-retryable backend failure),
// expired (queue-front shed or budget exhausted mid-backend), poisoned
// (an earlier request of the key panicked this epoch), faulted (the
// handler panicked: see contain), or none of these because a retry timer
// was armed and the job will be delivered again.
func (s *Server) execute(c *prometheus.Ctx, j *job) {
	defer func() {
		if v := recover(); v != nil {
			s.contain(c, j, v)
		}
	}()
	sess := j.sess
	// The clock is read only for who needs it: the deadline, the watchdog.
	var start time.Time
	if !j.deadline.IsZero() || s.cfg.SlowThreshold > 0 {
		start = time.Now()
	}
	if !j.deadline.IsZero() && start.After(j.deadline) {
		// Queue-front shed: the set's earlier work (a latency spike, a slow
		// epoch-mate) consumed this request's budget before its turn came.
		// Resolving 504 here — without running the backend — is what keeps
		// one slow request from cascading into a wedged key.
		s.metrics.expired.Add(1)
		j.finish(outcomeExpired)
		return
	}
	if sess.poisonedIn.Load() == s.epoch {
		// Delegated before an earlier request of the key panicked.
		s.drop(j, sess)
		return
	}
	sess.fault = nil // poisoned in an earlier epoch, if at all: healed
	ctx := context.Background()
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	sess.Seq++
	if s.store != nil {
		// Listed where Seq moves, before the backend can panic: the next
		// capture must see every session whose in-memory state changed.
		s.markWritten(c.ID(), sess)
	}
	status, body, err := s.cfg.Backend.Serve(ctx, sess, j.r)
	if s.cfg.SlowThreshold > 0 {
		s.watch(sess, time.Since(start))
	}
	if s.store != nil {
		// Journal the session's post-state before the request can resolve:
		// under FsyncAlways the record is durable before the ack goes out.
		// A panicking handler unwinds past this point, journaling nothing —
		// a faulted operation contributes no durable state.
		s.journalSession(c.ID(), sess)
	}
	if err == nil {
		j.status, j.body = status, body
		j.finish(outcomeServed)
		return
	}
	s.metrics.backendFailures.Add(1)
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		// The budget died inside the backend (deadline-context timeout or a
		// failure that arrived at the boundary): this is a 504, not a 502,
		// and retrying is pointless.
		s.metrics.expired.Add(1)
		j.finish(outcomeExpired)
		return
	}
	backoff := s.backoffFor(j)
	if s.retryable(j, backoff) {
		// Arm the retry OFF the delegate: backing off inline would hold the
		// set hostage. The timer takes the role and re-delegates through
		// the same set, and per-key order holds across attempts by
		// construction.
		j.attempt++
		s.metrics.retries.Add(1)
		time.AfterFunc(backoff, func() { s.enter(j) })
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

// contain is execute's panic handler, still on the unwinding stack so the
// captured stack reaches the failure site. It poisons the key — stores the
// fault on its Session, then stamps the Session, which later requests read
// at delivery and at the queue front — and answers the faulting request
// with a 500 that carries the fault. Recovering here, not in the engine,
// is what keeps the engine from dropping the key's queued requests
// unanswered.
func (s *Server) contain(c *prometheus.Ctx, j *job, v any) {
	f := &prometheus.PanicError{Set: j.set, Ctx: c.ID(), Epoch: uint64(s.epoch), Value: v, Stack: debug.Stack()}
	j.sess.fault = f
	j.sess.poisonedIn.Store(s.epoch)
	s.poisoned.Add(1)
	s.metrics.panics.Add(1)
	j.fault = f
	j.finish(outcomeFaulted)
}

// rotate closes the epoch and opens the next: the barrier proves the pool
// quiescent and the epoch advances, which heals poisoned and degraded keys
// and restarts slow runs, and the stats snapshot republishes. Holds the
// role.
func (s *Server) rotate() {
	s.rt.EndIsolation()
	s.degraded.Store(0)
	s.poisoned.Store(0)
	if s.epoch++; s.epoch == 0 { // wrapped: no stale epoch stamp may match
		for _, sess := range s.sessions {
			sess.slowEpoch = 0
			sess.degradedIn.Store(0)
			sess.poisonedIn.Store(0)
		}
		s.epoch = 1
	}
	// The barrier just proved the pool quiescent: no delegate is mutating
	// any Session, so this window is a consistent cut across every key —
	// where the durable-session capture rides (see durability.go).
	s.rotateDurable()
	s.rt.BeginIsolation()
	s.publishStats()
}

// publishStats republishes the runtime counters for Stats. Holds the role.
func (s *Server) publishStats() {
	st := s.rt.Stats()
	s.statsSnap.Store(&st)
}

// Drain gracefully stops the server: admission closes (new requests get
// 503), every admitted request is answered — rotations and retry timers
// keep running meanwhile — then the final barrier and snapshot run under
// the role and the runtime terminates. Closing admission and counting a
// request are moves of one word (see admit), so no request slips in
// behind an observed zero and a refused one is never counted. If
// stragglers outlast DrainTimeout their count and the scheduler-ledger
// dump are logged and the wait CONTINUES: abandoning it would drop
// accepted requests, the one thing drain exists to prevent. A handler
// that never returns therefore wedges the drain (as it would wedge the
// shutdown barrier), and the straggler report is the diagnosis. Call after
// the HTTP listener has stopped accepting new connections; call once.
func (s *Server) Drain() error {
	if s.inflight.Add(drainingBit) != drainingBit {
		late := time.NewTimer(DrainTimeout)
		defer late.Stop()
		select {
		case <-s.idle:
		case <-late.C:
			s.cfg.Logf("serve: drain timeout: %d requests still inflight\n%s",
				s.inflight.Load()&^drainingBit, s.rt.SchedDump())
			<-s.idle
		}
	}
	s.role.Lock()
	defer s.role.Unlock()
	s.rotTimer.Stop()
	s.stopped = true
	s.rt.EndIsolation()
	s.publishStats()
	// Final barrier passed: the table is quiescent forever. Persist it
	// synchronously — a clean drain is lossless under every fsync policy.
	s.drainDurable()
	s.rt.Terminate()
	if n := s.inflight.Load() &^ drainingBit; n != 0 {
		return fmt.Errorf("serve: drained with %d requests unanswered", n)
	}
	return nil
}

// Stats returns the most recent epoch-rotation snapshot of the runtime
// counters. Safe from any goroutine.
func (s *Server) Stats() prometheus.Stats { return *s.statsSnap.Load() }
