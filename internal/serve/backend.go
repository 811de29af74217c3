package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// Backend executes the work behind one request, on a delegate context,
// serialized with every other request for the same key by the key's
// serialization set. ctx carries the request's deadline (see
// Config.RequestTimeout); a backend that does I/O must honor it so a slow
// downstream resolves as a timeout error instead of wedging its key's set
// for the epoch.
//
// The error return is the backend-health seam: a nil error means the
// backend produced a definitive answer (any status — an upstream 404 is a
// healthy backend answering), a non-nil error means the backend itself
// failed (connect error, 5xx, timeout, injected chaos). Errors feed the
// pool's circuit breaker and the tier's retry ladder; panics remain the
// handler-bug seam, contained by the tier (a 500 that poisons the key for
// the epoch).
type Backend interface {
	// Name identifies the backend in metrics and health reports.
	Name() string
	// Serve executes one request against its key's session. Implementations
	// must not retain s or r beyond the call.
	Serve(ctx context.Context, s *Session, r *http.Request) (status int, body string, err error)
}

// ErrNoBackend is returned by a Pool when every backend is gated by its
// circuit breaker (or denied the half-open probe slot). It is retryable:
// a later attempt may land after a cooldown opened a probe slot.
var ErrNoBackend = errors.New("serve: no backend available: all gated by circuit breakers")

// BackendError wraps a backend failure with the backend's name, so
// responses and logs identify which upstream failed. Unwrap exposes the
// cause for errors.Is (the chaos tests match injected errors through it).
type BackendError struct {
	Backend string
	Err     error
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("backend %q: %v", e.Backend, e.Err)
}

func (e *BackendError) Unwrap() error { return e.Err }

// HandlerBackend adapts a Handler to the Backend interface: the in-process
// backend. A deadline on ctx is attached to a copy of the *http.Request
// (r.Context().Deadline()), so a cooperative handler can bound its own
// work; with none to carry the handler gets the request as it came. A
// handler that ignores the deadline runs to completion and it is enforced
// on the requests queued behind it (queue-front shedding) and by the
// slow-key watchdog instead.
type HandlerBackend struct {
	name string
	h    Handler
}

// NewHandlerBackend wraps h as a named in-process backend.
func NewHandlerBackend(name string, h Handler) *HandlerBackend {
	return &HandlerBackend{name: name, h: h}
}

func (hb *HandlerBackend) Name() string { return hb.name }

func (hb *HandlerBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	if _, ok := ctx.Deadline(); ok {
		r = r.WithContext(ctx)
	}
	status, body := hb.h(s, r)
	return status, body, nil
}

// HTTPBackend proxies requests to an upstream HTTP server — the serving
// tier as a session-affinity router in front of a real fleet. The upstream
// sees the original method, path, and query, the request body (capped at
// maxProxyBody — the same bound the response side carries), the original
// Content-Type, and the session key in X-Session-Key; the request deadline
// propagates as the outgoing request's context, so a slow upstream
// resolves as a timeout error at the budget boundary. Transport errors and
// upstream 5xx count as backend failures (breaker + retry); every other
// status is a definitive answer relayed to the client.
//
// The body is read once and cached on the request (r.GetBody), so a
// retried attempt — a retry re-delegates an idempotent request through
// the same job — replays the same bytes instead of finding a drained
// reader. A body over the cap is a definitive 413, not a backend failure:
// retrying would re-send the same oversized payload.
type HTTPBackend struct {
	name string
	base *url.URL
}

// maxProxyBody bounds how much of an upstream response body is relayed,
// so one misbehaving upstream cannot balloon the tier's memory.
const maxProxyBody = 1 << 20

// NewHTTPBackend builds an upstream proxy backend. It sends through
// http.DefaultClient, with no client-side timeout: the request context
// carries the deadline.
func NewHTTPBackend(name, baseURL string) (*HTTPBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("serve: backend %q: %w", name, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("serve: backend %q: base URL %q needs scheme and host", name, baseURL)
	}
	return &HTTPBackend{name: name, base: u}, nil
}

func (hb *HTTPBackend) Name() string { return hb.name }

func (hb *HTTPBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	payload, status, errBody := proxyBody(r)
	if status != 0 {
		return status, "request body exceeds the proxy cap\n", nil
	}
	if errBody != nil {
		return 0, "", errBody
	}
	u := *hb.base
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	var bodyReader io.Reader
	if payload != nil {
		bodyReader = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u.String(), bodyReader)
	if err != nil {
		return 0, "", err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set("X-Session-Key", s.Key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode >= 500 {
		return 0, "", fmt.Errorf("upstream status %d", resp.StatusCode)
	}
	return resp.StatusCode, string(body), nil
}

// proxyBody reads the inbound request body once (bounded by maxProxyBody)
// and caches it on the request via r.GetBody, so a retried attempt
// replays the same bytes instead of finding a reader the first attempt
// drained. Returns (payload, 0, nil) on success — payload nil when the
// request carries no body — (nil, 413, nil) when the body exceeds the
// cap (definitive: a retry would re-send the same oversized payload),
// and a non-nil error when the client stream broke mid-read (a backend
// failure from the caller's perspective, though retrying it will fail
// the same way until the request is shed).
func proxyBody(r *http.Request) ([]byte, int, error) {
	rc := r.Body
	if r.GetBody != nil {
		// A prior attempt (or the client) cached the body; re-open it.
		var err error
		if rc, err = r.GetBody(); err != nil {
			return nil, 0, err
		}
	}
	if rc == nil || rc == http.NoBody {
		return nil, 0, nil
	}
	b, err := io.ReadAll(io.LimitReader(rc, maxProxyBody+1))
	if err != nil {
		return nil, 0, err
	}
	if len(b) > maxProxyBody {
		return nil, http.StatusRequestEntityTooLarge, nil
	}
	if len(b) == 0 {
		return nil, 0, nil
	}
	if r.GetBody == nil {
		r.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(b)), nil
		}
	}
	return b, 0, nil
}

// ChaosBackend wraps a backend with the deterministic degraded-downstream
// injectors from internal/chaos: latency spikes (slept under the request's
// deadline context, so a spike longer than the remaining budget resolves
// as a timeout error, never a wedge), transient errors, and a flap window
// (a contiguous outage over this backend's own call sequence — the
// circuit-breaker exercise). Any injector may be nil.
type ChaosBackend struct {
	Inner   Backend
	Latency *chaos.Latency
	Errors  *chaos.Errors
	Flap    *chaos.Flap
}

func (cb *ChaosBackend) Name() string { return cb.Inner.Name() }

func (cb *ChaosBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	if cb.Latency != nil {
		if d := cb.Latency.Delay(s.Set); d > 0 {
			if err := sleepCtx(ctx, d); err != nil {
				return 0, "", err
			}
		}
	}
	if cb.Flap != nil && cb.Flap.Down() {
		return 0, "", fmt.Errorf("chaos: backend %q flapped down", cb.Inner.Name())
	}
	if cb.Errors != nil {
		if err := cb.Errors.Err(s.Set); err != nil {
			return 0, "", err
		}
	}
	return cb.Inner.Serve(ctx, s, r)
}

// sleepCtx sleeps for d or until ctx's deadline, whichever comes first,
// returning ctx.Err() when the deadline cut the sleep short.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BackendState is one backend's health snapshot, for /metrics gauges and
// the /healthz readiness body.
type BackendState struct {
	Name        string
	State       string // "closed", "open", "half-open"
	Gated       bool   // state != closed: out of (full) rotation
	ConsecFails int    // consecutive failures observed while closed
	Opens       uint64 // times the breaker opened
	Denied      uint64 // requests short-circuited by the gate
	// LatencyEWMA is the backend's smoothed service time in milliseconds
	// (zero until its first completed call) — the observability half of
	// latency-aware routing; routing itself still rotates round-robin.
	LatencyEWMA float64
}

// statesProvider is how the server discovers per-backend health without
// caring whether Config.Backend is a Pool: any backend exposing States is
// reported on /metrics and /healthz.
type statesProvider interface {
	States() []BackendState
}

// Pool routes each call to one healthy backend, in the style of an
// upstream keypool: round-robin rotation across backends whose circuit
// breaker admits traffic. One call tries ONE backend — on failure the
// breaker records it and the error returns to the tier, whose retry
// ladder re-delegates the request through the key's serialization set, so
// failover between backends never reorders a key's requests. When every
// backend is gated the call fails fast with ErrNoBackend (also retryable:
// cooldowns expire and half-open probes re-admit traffic).
type Pool struct {
	entries []*poolEntry
	next    atomic.Uint64
}

type poolEntry struct {
	b  Backend
	br *breaker
	// latEWMA is the backend's service-time EWMA in microseconds,
	// fixed-point so concurrent Serve returns fold in with plain atomics
	// (α = 1/8; first sample seeds the average). Failures are sampled
	// too: a backend that takes 2s to fail is slow, and the EWMA is a
	// service-time signal, not a success meter.
	latEWMA atomic.Int64
}

// noteLatency folds one observed service time into the entry's EWMA.
func (e *poolEntry) noteLatency(d time.Duration) {
	us := d.Microseconds()
	for {
		old := e.latEWMA.Load()
		next := old + (us-old)/8
		if old == 0 {
			next = us
		}
		if e.latEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// NewPool gates each backend behind its own circuit breaker (threshold
// consecutive failures to open, cooldown before the half-open probe).
// Panics on an empty backend list — a pool with nothing to route to is a
// construction bug.
func NewPool(threshold int, cooldown time.Duration, backends ...Backend) *Pool {
	if len(backends) == 0 {
		panic("serve: NewPool: no backends")
	}
	p := &Pool{entries: make([]*poolEntry, len(backends))}
	for i, b := range backends {
		p.entries[i] = &poolEntry{b: b, br: newBreaker(threshold, cooldown)}
	}
	return p
}

func (p *Pool) Name() string { return "pool" }

// Serve picks the next healthy backend in rotation and runs the request on
// it, reporting the outcome to that backend's breaker.
func (p *Pool) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	var calling *breaker // a call in progress: a panicking probe frees its slot
	defer func() {
		if calling != nil {
			calling.onPanic(time.Now())
		}
	}()
	now := time.Now()
	n := uint64(len(p.entries))
	start := p.next.Add(1)
	for i := uint64(0); i < n; i++ {
		e := p.entries[(start+i)%n]
		if !e.br.allow(now) {
			continue
		}
		callStart := time.Now()
		calling = e.br
		status, body, err := e.b.Serve(ctx, s, r)
		calling = nil
		e.noteLatency(time.Since(callStart))
		if err != nil {
			e.br.onFailure(time.Now())
			return 0, "", &BackendError{Backend: e.b.Name(), Err: err}
		}
		e.br.onSuccess()
		return status, body, nil
	}
	return 0, "", ErrNoBackend
}

// States snapshots every backend's breaker for metrics and health
// reporting.
func (p *Pool) States() []BackendState {
	out := make([]BackendState, len(p.entries))
	for i, e := range p.entries {
		st, consec := e.br.snapshot()
		out[i] = BackendState{
			Name:        e.b.Name(),
			State:       breakerStateName(st),
			Gated:       st != breakerClosed,
			ConsecFails: consec,
			Opens:       e.br.opens.Load(),
			Denied:      e.br.denied.Load(),
			LatencyEWMA: float64(e.latEWMA.Load()) / 1000.0,
		}
	}
	return out
}
