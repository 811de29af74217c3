package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Second)

	// Closed: failures below threshold keep admitting.
	for i := 0; i < 2; i++ {
		if !b.allow(now) {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.onFailure(now)
	}
	if st, consec := b.snapshot(); st != breakerClosed || consec != 2 {
		t.Fatalf("state %s consec %d, want closed/2", breakerStateName(st), consec)
	}
	// A success resets the consecutive count: 2 more failures must not open.
	b.onSuccess()
	b.onFailure(now)
	b.onFailure(now)
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("2 failures after a success opened a threshold-3 breaker")
	}
	// The third consecutive failure opens.
	b.onFailure(now)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("threshold reached but state %s", breakerStateName(st))
	}
	if b.opens.Load() != 1 {
		t.Fatalf("opens = %d, want 1", b.opens.Load())
	}

	// Open: denied until the cooldown elapses.
	if b.allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker admitted inside the cooldown")
	}
	if b.denied.Load() == 0 {
		t.Fatal("denial not counted")
	}

	// Cooldown over: exactly one probe is admitted.
	later := now.Add(2 * time.Second)
	if !b.allow(later) {
		t.Fatal("half-open transition denied the probe")
	}
	if st, _ := b.snapshot(); st != breakerHalfOpen {
		t.Fatalf("state %s, want half-open", breakerStateName(st))
	}
	if b.allow(later) {
		t.Fatal("second request admitted while the probe is in flight")
	}

	// Failed probe: reopen, cooldown restarts.
	b.onFailure(later)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("failed probe left state %s", breakerStateName(st))
	}
	if b.allow(later.Add(500 * time.Millisecond)) {
		t.Fatal("reopened breaker admitted inside the restarted cooldown")
	}

	// Successful probe: closed, back in rotation.
	evenLater := later.Add(2 * time.Second)
	if !b.allow(evenLater) {
		t.Fatal("second probe denied")
	}
	b.onSuccess()
	if st, consec := b.snapshot(); st != breakerClosed || consec != 0 {
		t.Fatalf("recovered breaker: state %s consec %d, want closed/0", breakerStateName(st), consec)
	}
	if !b.allow(evenLater) || !b.allow(evenLater) {
		t.Fatal("closed breaker limited traffic")
	}
}

// failingBackend fails every call until healed.
type failingBackend struct {
	name   string
	broken bool
	calls  int
}

func (f *failingBackend) Name() string { return f.name }
func (f *failingBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	f.calls++
	if f.broken {
		return 0, "", errors.New("down")
	}
	return http.StatusOK, f.name, nil
}

func TestPoolGatesFailingBackendAndRecovers(t *testing.T) {
	good := &failingBackend{name: "good"}
	bad := &failingBackend{name: "bad", broken: true}
	p := NewPool(3, 50*time.Millisecond, good, bad)

	sess := &Session{Key: "k", Set: 1}
	r := httptest.NewRequest("GET", "/", nil)

	// Drive calls until bad's breaker opens. Each failed call returns a
	// BackendError naming the culprit; successes name good.
	var failures int
	for i := 0; i < 40 && failures < 3; i++ {
		_, body, err := p.Serve(context.Background(), sess, r)
		if err != nil {
			var be *BackendError
			if !errors.As(err, &be) || be.Backend != "bad" {
				t.Fatalf("unexpected error %v", err)
			}
			failures++
		} else if body != "good" {
			t.Fatalf("success from %q", body)
		}
	}
	if failures != 3 {
		t.Fatalf("rotation produced %d failures, want 3", failures)
	}
	states := p.States()
	var badState BackendState
	for _, bs := range states {
		if bs.Name == "bad" {
			badState = bs
		}
	}
	if badState.State != "open" || !badState.Gated {
		t.Fatalf("bad backend state %+v, want open/gated", badState)
	}
	if n := gatedCount(p); n != 1 {
		t.Fatalf("gated backends = %d, want 1", n)
	}

	// While gated, every call lands on good: no more errors.
	for i := 0; i < 10; i++ {
		if _, _, err := p.Serve(context.Background(), sess, r); err != nil {
			t.Fatalf("call %d failed while bad was gated: %v", i, err)
		}
	}

	// Heal the backend and wait out the cooldown: the half-open probe
	// succeeds and bad returns to rotation.
	bad.broken = false
	time.Sleep(60 * time.Millisecond)
	before := bad.calls
	for i := 0; i < 10; i++ {
		if _, _, err := p.Serve(context.Background(), sess, r); err != nil {
			t.Fatalf("post-heal call failed: %v", err)
		}
	}
	if bad.calls == before {
		t.Fatal("healed backend got no traffic after the cooldown")
	}
	if n := gatedCount(p); n != 0 {
		t.Fatalf("gated backends = %d after recovery, want 0", n)
	}
}

// gatedCount counts the pool's backends out of full rotation, the way
// /healthz does.
func gatedCount(p *Pool) int {
	n := 0
	for _, bs := range p.States() {
		if bs.Gated {
			n++
		}
	}
	return n
}

// panickyBackend fails while broken, panics while panicky, and serves
// otherwise.
type panickyBackend struct {
	failingBackend
	panicky bool
}

func (p *panickyBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	if p.panicky {
		panic("probe handler bug")
	}
	return p.failingBackend.Serve(ctx, s, r)
}

// TestPoolPanickingProbeReopens: a half-open probe that panics gives its
// slot back as a failed probe — the breaker reopens and its cooldown
// restarts — so once that cooldown passes, a healthy call is served. A
// panic while closed counts nothing toward the threshold.
func TestPoolPanickingProbeReopens(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	b := &panickyBackend{failingBackend: failingBackend{name: "b"}}
	p := NewPool(1, cooldown, b)
	sess := &Session{Key: "k", Set: 1}
	r := httptest.NewRequest("GET", "/", nil)
	serve := func() (panicked bool, err error) {
		defer func() { panicked = recover() != nil }()
		_, _, err = p.Serve(context.Background(), sess, r)
		return false, err
	}

	b.panicky = true
	if panicked, _ := serve(); !panicked {
		t.Fatal("a panicking backend did not panic")
	}
	if st := p.States()[0]; st.Gated || st.ConsecFails != 0 {
		t.Fatalf("a panic while closed moved the breaker: %+v", st)
	}
	b.panicky, b.broken = false, true
	if _, err := serve(); err == nil {
		t.Fatal("a broken backend served")
	}
	time.Sleep(cooldown + 5*time.Millisecond)
	b.panicky = true
	if panicked, _ := serve(); !panicked {
		t.Fatal("the half-open probe did not panic")
	}
	if st := p.States()[0]; st.State != "open" || st.Opens != 2 {
		t.Fatalf("after a panicking probe: %+v, want open (2 opens)", st)
	}
	b.panicky, b.broken = false, false
	if _, err := serve(); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("inside the restarted cooldown: err %v, want ErrNoBackend", err)
	}
	time.Sleep(cooldown + 5*time.Millisecond)
	if _, err := serve(); err != nil {
		t.Fatalf("after the cooldown a healthy probe was refused: %v", err)
	}
	if st := p.States()[0]; st.Gated {
		t.Fatalf("a successful probe left the breaker gated: %+v", st)
	}
}

func TestPoolAllGated(t *testing.T) {
	bad := &failingBackend{name: "only", broken: true}
	p := NewPool(1, time.Hour, bad)
	sess := &Session{Key: "k", Set: 1}
	r := httptest.NewRequest("GET", "/", nil)

	if _, _, err := p.Serve(context.Background(), sess, r); err == nil {
		t.Fatal("first call to a broken backend succeeded")
	}
	_, _, err := p.Serve(context.Background(), sess, r)
	if !errors.Is(err, ErrNoBackend) {
		t.Fatalf("all-gated pool returned %v, want ErrNoBackend", err)
	}
}

// TestHandlerBackendCopiesRequestOnlyForADeadline: with no deadline to
// carry the handler gets the caller's request itself (no per-call copy) and
// its context; with one it gets a copy whose context has the deadline,
// and the caller's request is left alone.
func TestHandlerBackendCopiesRequestOnlyForADeadline(t *testing.T) {
	var got *http.Request
	hb := NewHandlerBackend("inner", func(_ *Session, r *http.Request) (int, string) {
		got = r
		return http.StatusOK, ""
	})
	type ctxKey struct{}
	r := httptest.NewRequest("GET", "/", nil)
	r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, "the caller's"))

	hb.Serve(context.Background(), &Session{}, r)
	if got != r {
		t.Error("no deadline: the handler got a copy of the request")
	}

	deadline := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	hb.Serve(ctx, &Session{}, r)
	if d, ok := got.Context().Deadline(); got == r || !ok || !d.Equal(deadline) {
		t.Errorf("deadline: handler request copied=%v, context deadline %v %v, want a copy carrying %v", got != r, d, ok, deadline)
	}
	if _, ok := r.Context().Deadline(); ok || r.Context().Value(ctxKey{}) != "the caller's" {
		t.Error("the caller's request context was modified")
	}
}

func TestChaosBackendInjectors(t *testing.T) {
	inner := NewHandlerBackend("inner", func(s *Session, r *http.Request) (int, string) {
		return http.StatusOK, "ok"
	})
	sess := &Session{Key: "k", Set: 7}
	r := httptest.NewRequest("GET", "/", nil)

	// Error injection surfaces the chaos.Injected value through errors.Is.
	cb := &ChaosBackend{Inner: inner, Errors: chaos.ErrorAt(7, 2)}
	if _, _, err := cb.Serve(context.Background(), sess, r); err != nil {
		t.Fatalf("op 1 failed: %v", err)
	}
	_, _, err := cb.Serve(context.Background(), sess, r)
	if !errors.Is(err, chaos.Injected{Set: 7, N: 2}) {
		t.Fatalf("op 2: %v, want Injected{7,2}", err)
	}

	// A latency spike longer than the remaining budget resolves as the
	// context error, not a full sleep: the deadline cuts it short.
	cb = &ChaosBackend{Inner: inner, Latency: chaos.SpikeEvery(1, time.Hour)}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = cb.Serve(ctx, sess, r)
	if err == nil {
		t.Fatal("deadline-cut spike returned no error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("spike slept %v past the deadline", elapsed)
	}

	// Flap window: down for ops [1,3), up after.
	cb = &ChaosBackend{Inner: inner, Flap: chaos.FlapBetween(1, 3)}
	for i := 1; i <= 4; i++ {
		_, _, err := cb.Serve(context.Background(), sess, r)
		if down := i < 3; (err != nil) != down {
			t.Fatalf("flap op %d: err=%v, want down=%v", i, err, down)
		}
	}
}

func TestHTTPBackendProxiesAndClassifies(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/boom":
			w.WriteHeader(http.StatusInternalServerError)
		case "/missing":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, "nope")
		default:
			fmt.Fprintf(w, "key=%s path=%s q=%s", r.Header.Get("X-Session-Key"), r.URL.Path, r.URL.RawQuery)
		}
	}))
	defer upstream.Close()

	hb, err := NewHTTPBackend("up", upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	sess := &Session{Key: "alice", Set: 1}
	r := httptest.NewRequest("GET", "/echo?a=1", nil)

	status, body, err := hb.Serve(context.Background(), sess, r)
	if err != nil || status != http.StatusOK {
		t.Fatalf("proxy: %d %q %v", status, body, err)
	}
	if body != "key=alice path=/echo q=a=1" {
		t.Fatalf("proxied body %q", body)
	}

	// Upstream 4xx is a definitive answer (healthy backend), relayed as-is.
	r4 := httptest.NewRequest("GET", "/missing", nil)
	status, body, err = hb.Serve(context.Background(), sess, r4)
	if err != nil || status != http.StatusNotFound || body != "nope" {
		t.Fatalf("4xx relay: %d %q %v", status, body, err)
	}

	// Upstream 5xx is a backend failure (feeds breaker + retry).
	r5 := httptest.NewRequest("GET", "/boom", nil)
	if _, _, err = hb.Serve(context.Background(), sess, r5); err == nil {
		t.Fatal("5xx not classified as backend failure")
	}

	// Construction-time validation.
	if _, err := NewHTTPBackend("x", "not a url\x7f"); err == nil {
		t.Fatal("bad URL accepted")
	}
	if _, err := NewHTTPBackend("x", "/relative"); err == nil {
		t.Fatal("schemeless URL accepted")
	}
}

// TestHTTPBackendForwardsBody: the proxy must carry the request body and
// Content-Type upstream, and the body must survive a retry — the second
// Serve call on the same request (how the router re-delegates after a
// backend failure) replays the cached bytes, not a drained reader.
func TestHTTPBackendForwardsBody(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "method=%s ct=%s body=%s", r.Method, r.Header.Get("Content-Type"), b)
	}))
	defer upstream.Close()

	hb, err := NewHTTPBackend("up", upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	sess := &Session{Key: "alice", Set: 1}
	r := httptest.NewRequest("POST", "/submit", strings.NewReader(`{"n":1}`))
	r.Header.Set("Content-Type", "application/json")

	want := `method=POST ct=application/json body={"n":1}`
	for attempt := 1; attempt <= 2; attempt++ {
		status, body, err := hb.Serve(context.Background(), sess, r)
		if err != nil || status != http.StatusOK {
			t.Fatalf("attempt %d: %d %q %v", attempt, status, body, err)
		}
		if body != want {
			t.Fatalf("attempt %d echoed %q, want %q", attempt, body, want)
		}
	}

	// A bodyless GET still forwards none.
	g := httptest.NewRequest("GET", "/submit", nil)
	status, body, err := hb.Serve(context.Background(), sess, g)
	if err != nil || status != http.StatusOK || !strings.Contains(body, "body=") {
		t.Fatalf("GET: %d %q %v", status, body, err)
	}
	if !strings.HasSuffix(body, "body=") {
		t.Fatalf("bodyless GET forwarded a body: %q", body)
	}
}

// TestHTTPBackendBodyCapEnforced: a body over maxProxyBody is refused with
// a definitive 413 (nil error — no breaker feed, no retry) and the
// upstream is never contacted.
func TestHTTPBackendBodyCapEnforced(t *testing.T) {
	var hits atomic.Int64
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer upstream.Close()

	hb, err := NewHTTPBackend("up", upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	sess := &Session{Key: "k", Set: 1}
	big := strings.NewReader(strings.Repeat("x", maxProxyBody+1))
	r := httptest.NewRequest("POST", "/submit", big)

	status, _, err := hb.Serve(context.Background(), sess, r)
	if err != nil {
		t.Fatalf("over-cap body classified as backend failure: %v", err)
	}
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", status)
	}
	if hits.Load() != 0 {
		t.Fatalf("upstream contacted %d times for an over-cap body", hits.Load())
	}

	// Exactly at the cap is fine.
	ok := httptest.NewRequest("POST", "/submit", strings.NewReader(strings.Repeat("x", maxProxyBody)))
	status, _, err = hb.Serve(context.Background(), sess, ok)
	if err != nil || status != http.StatusOK {
		t.Fatalf("at-cap body: %d %v", status, err)
	}
}

// signalingFailBackend fails every call and signals each attempt, so a
// test can synchronize with the retry ladder.
type signalingFailBackend struct {
	attempts chan struct{}
}

func (f *signalingFailBackend) Name() string { return "always-down" }
func (f *signalingFailBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	select {
	case f.attempts <- struct{}{}:
	default:
	}
	return 0, "", errors.New("down")
}

// TestDrainWithArmedRetry: a retry armed via time.AfterFunc owns its job
// while the timer runs — not finished, not in flight, but still admitted.
// Drain must leave the role free until the timer has re-delivered and the
// ladder is exhausted: the request resolves (502) and only then does
// Drain take the role for the final barrier and return nil. A drain that
// stopped the server under an armed timer would drop the re-delivery and
// report an unanswered request; this pins that it does not. Six retries
// back off 2+4+…+64 ms (±50%), so the ladder spans the drain.
func TestDrainWithArmedRetry(t *testing.T) {
	fb := &signalingFailBackend{attempts: make(chan struct{}, 16)}
	s := newTestServer(t, Config{
		Backend:       fb,
		RetryMax:      6,
		EpochInterval: 20 * time.Millisecond,
	})
	h := s.Handler()

	type resp struct {
		code int
		body string
	}
	done := make(chan resp, 1)
	go func() {
		r := httptest.NewRequest("GET", "/", nil)
		r.Header.Set("X-Session-Key", "k")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		done <- resp{w.Code, w.Body.String()}
	}()

	// First attempt has failed; the retry timer is armed (or about to be)
	// while we start the drain.
	<-fb.attempts
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain with an armed retry: %v", err)
	}
	r := <-done
	if r.code != http.StatusBadGateway {
		t.Fatalf("retried request resolved %d %q, want 502", r.code, r.body)
	}
	if !strings.Contains(r.body, "7 attempt(s)") {
		t.Fatalf("body %q: the full retry ladder did not run across the drain", r.body)
	}
}

// countingBackend answers 200 and counts calls atomically.
type countingBackend struct {
	name  string
	calls atomic.Int64
}

func (c *countingBackend) Name() string { return c.name }
func (c *countingBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	c.calls.Add(1)
	return http.StatusOK, c.name, nil
}

// TestPoolRoundRobinFairness: with every breaker closed, rotation is
// driven by an atomic counter, so N concurrent calls across 3 backends
// split exactly N/3 each — no backend is hot-spotted by racing clients.
func TestPoolRoundRobinFairness(t *testing.T) {
	bs := []*countingBackend{{name: "b0"}, {name: "b1"}, {name: "b2"}}
	p := NewPool(3, time.Second, bs[0], bs[1], bs[2])
	sess := &Session{Key: "k", Set: 1}
	r := httptest.NewRequest("GET", "/", nil)

	const total = 300
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := p.Serve(context.Background(), sess, r); err != nil {
				t.Errorf("Serve: %v", err)
			}
		}()
	}
	wg.Wait()
	for _, b := range bs {
		if n := b.calls.Load(); n != total/3 {
			t.Errorf("backend %s served %d, want %d", b.name, n, total/3)
		}
	}
}

// TestBreakerHalfOpenSingleProbe: when the cooldown expires, concurrent
// callers race for the half-open probe slot and exactly one may win —
// two winners would double-probe a backend that earned a gentle restart.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(1, time.Second)
	if !b.allow(now) {
		t.Fatal("closed breaker denied")
	}
	b.onFailure(now) // threshold 1: open

	later := now.Add(2 * time.Second)
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.allow(later) {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d callers won the half-open probe slot, want exactly 1", wins.Load())
	}
}

// TestHealthzDegradationReport: the /healthz body must expose the three
// degradation gauges an orchestrator keys off — poisoned keys, gated
// backends, watchdog-degraded keys — on both the 200 and the 503.
func TestHealthzDegradationReport(t *testing.T) {
	bad := &failingBackend{name: "bad", broken: true}
	good := NewHandlerBackend("good", testHandler)
	s := newTestServer(t, Config{
		Backend:       NewPool(1, time.Hour, good, bad),
		EpochInterval: time.Hour, // no rotation: poison and gating persist for the test
	})
	defer s.Drain()
	h := s.Handler()

	code, body := get(t, h, "/healthz", "k", nil)
	if code != http.StatusOK || !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("healthy healthz: %d %q", code, body)
	}
	if !strings.Contains(body, "poisoned_keys 0") || !strings.Contains(body, "gated_backends 0") {
		t.Fatalf("healthz body %q missing zeroed gauges", body)
	}

	// Gate the bad backend (threshold 1: one failure opens it). Requests
	// keep succeeding via the good backend.
	for i := 0; i < 4; i++ {
		get(t, h, "/", "k", nil)
	}
	_, body = get(t, h, "/healthz", "k", nil)
	if !strings.Contains(body, "gated_backends 1") {
		t.Fatalf("healthz body %q does not report the gated backend", body)
	}

	// Poison a key: a panicking handler poisons its set for the epoch.
	if code, _ := get(t, h, "/", "victim", map[string]string{"X-Boom": "1"}); code != http.StatusInternalServerError {
		t.Fatalf("panic request status %d, want 500", code)
	}
	_, body = get(t, h, "/healthz", "k", nil)
	if !strings.Contains(body, "poisoned_keys 1") {
		t.Fatalf("healthz body %q does not report the poisoned key", body)
	}
}
