package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	prometheus "repro"
	"repro/internal/chaos"
	"repro/internal/durable"
)

// newReq builds a keyed request without routing it anywhere.
func newReq(method, path, key string, hdr map[string]string) *http.Request {
	r := httptest.NewRequest(method, path, nil)
	r.Header.Set("X-Session-Key", key)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	return r
}

// blockingBackend parks until the request's deadline fires, then reports
// the context error — a well-behaved upstream that honors cancellation.
type blockingBackend struct{}

func (blockingBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	<-ctx.Done()
	return 0, "", ctx.Err()
}

// TestDeadlineBackendTimeout covers the in-backend enforcement point: a
// backend that honors its context deadline fails the attempt, the router
// sees the budget is gone, and the client gets a definitive 504 — not a
// retry, not a parked done channel.
func TestDeadlineBackendTimeout(t *testing.T) {
	s := newTestServer(t, Config{
		Backend:        blockingBackend{},
		RequestTimeout: 30 * time.Millisecond,
		RetryMax:       3, // must NOT be consulted: the budget is spent
	})
	defer s.Drain()
	h := s.Handler()

	start := time.Now()
	code, body := get(t, h, "/", "k1", nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %q, want 504", code, body)
	}
	if !strings.Contains(body, "exceeded its") {
		t.Fatalf("504 body %q lacks the budget explanation", body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("expired request took %v to resolve", elapsed)
	}
}

// TestDeadlineQueueFrontShed covers the queue-front enforcement point: a
// request whose budget was consumed by a slow epoch-mate ahead of it in
// the same serialization set resolves 504 without running its backend.
func TestDeadlineQueueFrontShed(t *testing.T) {
	ran := make(map[string]bool)
	var mu sync.Mutex
	s := newTestServer(t, Config{
		Handler: func(sess *Session, r *http.Request) (int, string) {
			mu.Lock()
			ran[r.URL.Path] = true
			mu.Unlock()
			if r.Header.Get("X-Slow") == "1" {
				time.Sleep(120 * time.Millisecond) // uncancellable: ignores the deadline
			}
			return http.StatusOK, "ok"
		},
		RequestTimeout: 40 * time.Millisecond,
		EpochInterval:  time.Second, // no rotation mid-test; the queue front must shed on its own
	})
	defer s.Drain()
	h := s.Handler()

	var wg sync.WaitGroup
	wg.Add(2)
	codes := make([]int, 2)
	go func() {
		defer wg.Done()
		codes[0], _ = get(t, h, "/first", "hot", map[string]string{"X-Slow": "1"})
	}()
	time.Sleep(10 * time.Millisecond) // let the slow one claim the set
	go func() {
		defer wg.Done()
		codes[1], _ = get(t, h, "/second", "hot", nil)
	}()
	wg.Wait()

	// The slow request ignores its deadline and completes late: a late
	// success is still a success. The one queued behind it must expire.
	if codes[0] != http.StatusOK {
		t.Fatalf("slow request status %d, want 200", codes[0])
	}
	if codes[1] != http.StatusGatewayTimeout {
		t.Fatalf("queued request status %d, want 504", codes[1])
	}
	mu.Lock()
	defer mu.Unlock()
	if ran["/second"] {
		t.Fatal("expired request's backend ran anyway: queue-front shed failed")
	}
}

// TestExpiredBeatsPoisoned: a request whose budget is gone answers 504
// even when its key is poisoned, at the queue front (queued behind the
// request that panics) and at delivery (waiting for the role).
func TestExpiredBeatsPoisoned(t *testing.T) {
	s := newTestServer(t, Config{
		Handler: func(sess *Session, r *http.Request) (int, string) {
			if r.Header.Get("X-Slow") == "1" {
				time.Sleep(80 * time.Millisecond) // past the budget of the request queued behind
			}
			return testHandler(sess, r)
		},
		RequestTimeout: 40 * time.Millisecond,
		EpochInterval:  time.Hour,
	})
	defer s.Drain()
	h := s.Handler()
	codes := make(chan int, 1)
	go func() {
		code, _ := get(t, h, "/", "k", map[string]string{"X-Slow": "1", "X-Boom": "1"})
		codes <- code
	}()
	waitQueued(t, s, 1)
	if code, _ := get(t, h, "/", "k", nil); code != http.StatusGatewayTimeout {
		t.Errorf("expired at the queue front behind the panic: status %d, want 504", code)
	}
	if code := <-codes; code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", code)
	}

	s.role.Lock()
	go func() {
		code, _ := get(t, h, "/", "k", nil)
		codes <- code
	}()
	for s.inflight.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	s.role.Unlock()
	if code := <-codes; code != http.StatusGatewayTimeout {
		t.Errorf("expired at delivery on the poisoned key: status %d, want 504", code)
	}
}

// TestRetryRecoversInjectedFailure: a deterministic chaos error on the
// key's first backend attempt is healed by one retry — the client sees a
// plain 200 and the retry counter moves.
func TestRetryRecoversInjectedFailure(t *testing.T) {
	const key = "retry-key"
	set := prometheus.StringSet(key)
	errs := chaos.ErrorAt(set, 1)
	s := newTestServer(t, Config{
		Backend:  &chaosBackend{h: testHandler, errors: errs},
		RetryMax: 2,
	})
	h := s.Handler()

	code, body := get(t, h, "/", key, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d body %q, want 200 after retry", code, body)
	}
	if s.metrics.retries.Load() == 0 {
		t.Fatal("no retry recorded")
	}
	if errs.Fired() != 1 {
		t.Fatalf("%d injected failures, want 1", errs.Fired())
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRetryNotForNonIdempotent: the same injected failure on a POST
// without an Idempotency-Key renders a 502 instead of retrying.
func TestRetryNotForNonIdempotent(t *testing.T) {
	const key = "post-key"
	set := prometheus.StringSet(key)
	s := newTestServer(t, Config{
		Backend: &chaosBackend{
			h:      testHandler,
			errors: chaos.ErrorAt(set, 1),
		},
		RetryMax: 2,
	})
	defer s.Drain()
	h := s.Handler()

	r := newReq("POST", "/", key, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	code, body := w.Code, w.Body.String()
	if code != http.StatusBadGateway {
		t.Fatalf("non-idempotent POST: status %d body %q, want 502", code, body)
	}
	if !strings.Contains(body, "after 1 attempt(s)") {
		t.Fatalf("502 body %q does not show a single attempt", body)
	}
	if s.metrics.retries.Load() != 0 {
		t.Fatal("non-idempotent request was retried")
	}

	// The second per-set op has no injected error; an Idempotency-Key on a
	// later failing op would opt the POST back into retries — covered by
	// the idempotent unit checks below.
	if !idempotent(newReq("POST", "/", key, map[string]string{"Idempotency-Key": "tx-9"})) {
		t.Fatal("Idempotency-Key header did not mark the POST retryable")
	}
	if idempotent(newReq("POST", "/", key, nil)) {
		t.Fatal("bare POST marked retryable")
	}
	if !idempotent(newReq("GET", "/", key, nil)) {
		t.Fatal("GET not marked retryable")
	}
}

// TestRetryPreservesPerKeyOrder: a key whose every odd backend attempt
// fails (and is retried) still yields unique, gap-free session sequence
// numbers across concurrent clients — retries re-enter through the same
// serialization set, so no two attempts for the key ever overlap.
func TestRetryPreservesPerKeyOrder(t *testing.T) {
	const key = "flaky-key"
	s := newTestServer(t, Config{
		Backend: &chaosBackend{
			h: testHandler,
			// Seeded 30% failure rate on this set's ops: many requests need
			// one or more retries, deterministically placed.
			errors: chaos.SeededErrors(42, 0.3),
		},
		RetryMax: 8,
	})
	h := s.Handler()

	const clients, perClient = 4, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	seqs := map[string]int{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, body := get(t, h, "/", key, nil)
				if code != http.StatusOK {
					t.Errorf("status %d body %q", code, body)
					return
				}
				mu.Lock()
				seqs[body]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for seq, n := range seqs {
		if n != 1 {
			t.Fatalf("sequence %s returned %d times: attempts for one key overlapped", seq, n)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSlowKeyWatchdog: consecutive slow services degrade the key to 503
// sheds; the next epoch rotation heals it.
func TestSlowKeyWatchdog(t *testing.T) {
	s := newTestServer(t, Config{
		Handler: func(sess *Session, r *http.Request) (int, string) {
			if r.Header.Get("X-Slow") == "1" {
				time.Sleep(15 * time.Millisecond)
			}
			return http.StatusOK, "ok"
		},
		SlowThreshold: 5 * time.Millisecond,
		EpochInterval: 400 * time.Millisecond,
	})
	defer s.Drain()
	h := s.Handler()

	slow := map[string]string{"X-Slow": "1"}
	for i := 0; i < slowTrips; i++ {
		if s.degraded.Load() != 0 {
			t.Fatalf("key degraded after %d slow services, want %d", i, slowTrips)
		}
		if code, _ := get(t, h, "/", "laggard", slow); code != http.StatusOK {
			t.Fatalf("slow request %d not served", i)
		}
	}
	// Three consecutive slow services tripped the watchdog: even a fast
	// request for the key is now shed.
	code, body := get(t, h, "/", "laggard", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("degraded key: status %d body %q, want 503 shed", code, body)
	}
	// Other keys are unaffected.
	if code, _ := get(t, h, "/", "bystander", nil); code != http.StatusOK {
		t.Fatal("watchdog degradation leaked to an unrelated key")
	}
	if n := s.degraded.Load(); n != 1 {
		t.Fatalf("degraded keys = %d, want 1", n)
	}

	// Rotation heals: the key serves again (and its consecutive-slow
	// count restarts from zero).
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ = get(t, h, "/", "laggard", nil)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("degraded key never healed across rotations")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// slowHandler sleeps 40ms — twice watchdogServer's threshold — on a
// request marked X-Slow, after waiting for gate when one is given.
func slowHandler(gate chan struct{}) Handler {
	return func(sess *Session, r *http.Request) (int, string) {
		if r.Header.Get("X-Slow") == "1" {
			if gate != nil {
				<-gate
			}
			time.Sleep(40 * time.Millisecond)
		}
		return testHandler(sess, r)
	}
}

// watchdogServer arms the watchdog at 20ms with no timed rotation: the
// tests rotate by hand.
func watchdogServer(t *testing.T, cfg Config) *Server {
	cfg.SlowThreshold = 20 * time.Millisecond
	cfg.EpochInterval = time.Hour
	return newTestServer(t, cfg)
}

// TestSlowKeyWatchdogFastServiceResetsRun: the run counts consecutive slow
// services, so slow, slow, fast, slow, slow leaves the key served; a third
// slow one in a row then degrades it.
func TestSlowKeyWatchdogFastServiceResetsRun(t *testing.T) {
	s := watchdogServer(t, Config{Handler: slowHandler(nil)})
	defer s.Drain()
	h := s.Handler()
	slow := map[string]string{"X-Slow": "1"}
	for i, hdr := range []map[string]string{slow, slow, nil, slow, slow, slow} {
		if s.degraded.Load() != 0 {
			t.Fatalf("key degraded before request %d", i)
		}
		if code, body := get(t, h, "/", "k", hdr); code != http.StatusOK {
			t.Fatalf("request %d: status %d body %q, want 200", i, code, body)
		}
	}
	if code, _ := get(t, h, "/", "k", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("third consecutive slow service: next status %d, want 503", code)
	}
}

// TestSlowKeyWatchdogCountsATripOnce: requests for the key delegated before
// it trips still run, slowly, after it; they extend the run but count no
// second degradation, on the counter or the gauge.
func TestSlowKeyWatchdogCountsATripOnce(t *testing.T) {
	gate := make(chan struct{})
	s := watchdogServer(t, Config{Handler: slowHandler(gate)})
	defer s.Drain()
	h := s.Handler()
	const n = 2 * slowTrips
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			code, _ := get(t, h, "/", "k", map[string]string{"X-Slow": "1"})
			codes <- code
		}()
	}
	// Every request is delegated before the first one may finish.
	waitQueued(t, s, n)
	close(gate)
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("a request delegated before the trip answered %d, want 200", code)
		}
	}
	if code, _ := get(t, h, "/", "k", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("after the trip: status %d, want 503", code)
	}
	_, body := get(t, h, "/metrics", "scraper", nil)
	for _, want := range []string{"\nss_degraded_keys_total 1\n", "\nss_degraded_keys 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestSlowKeyWatchdogRotationRestartsRun: rotation heals a degraded key and
// restarts its run, so one slow service after it degrades nothing.
func TestSlowKeyWatchdogRotationRestartsRun(t *testing.T) {
	s := watchdogServer(t, Config{Handler: slowHandler(nil)})
	defer s.Drain()
	h := s.Handler()
	slow := map[string]string{"X-Slow": "1"}
	for i := 0; i < slowTrips; i++ {
		get(t, h, "/", "k", slow)
	}
	if code, _ := get(t, h, "/", "k", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("tripped key: status %d, want 503", code)
	}
	rotateNow(s)
	if s.degraded.Load() != 0 {
		t.Fatalf("degraded keys = %d after rotation, want 0", s.degraded.Load())
	}
	for i, hdr := range []map[string]string{slow, nil} {
		if code, _ := get(t, h, "/", "k", hdr); code != http.StatusOK {
			t.Fatalf("request %d after rotation: status %d, want 200", i, code)
		}
	}
	if n := s.metrics.degradedKeys.Load(); n != 1 {
		t.Fatalf("ss_degraded_keys_total = %d, want 1", n)
	}
}

// TestSlowKeyWatchdogRecoveredSessionUndegraded: the watchdog's state is
// not durable, so a session rebuilt by recovery starts undegraded.
func TestSlowKeyWatchdogRecoveredSessionUndegraded(t *testing.T) {
	fs := durable.NewMemFS()
	s1 := watchdogServer(t, Config{Handler: slowHandler(nil), StateFS: fs})
	h := s1.Handler()
	for i := 0; i < slowTrips; i++ {
		get(t, h, "/", "k", map[string]string{"X-Slow": "1"})
	}
	if code, _ := get(t, h, "/", "k", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("tripped key: status %d, want 503", code)
	}
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	s2 := watchdogServer(t, Config{Handler: slowHandler(nil), StateFS: fs})
	defer s2.Drain()
	if n, _ := s2.Recovered(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	code, body := get(t, s2.Handler(), "/", "k", nil)
	if code != http.StatusOK || body != fmt.Sprint(slowTrips+1) {
		t.Fatalf("recovered key: status %d body %q, want 200 %d", code, body, slowTrips+1)
	}
	if s2.degraded.Load() != 0 {
		t.Fatalf("degraded keys = %d after recovery, want 0", s2.degraded.Load())
	}
}

// TestBackoffBoundedByDeadline: a retry whose backoff would land past the
// deadline is not armed — the budget bounds total attempts, so the client
// sees the rendered failure, not a late retry. The budget left is shorter
// than the smallest first backoff (retryBase jittered down to half, 1ms).
func TestBackoffBoundedByDeadline(t *testing.T) {
	s := newTestServer(t, Config{Handler: testHandler, RetryMax: 3})
	defer s.Drain()

	j := &job{set: prometheus.StringSet("bounded"), r: newReq("GET", "/", "bounded", nil)}
	if !s.retryable(j, s.backoffFor(j)) {
		t.Fatal("an idempotent first failure with no deadline is not retryable")
	}
	j.deadline = time.Now().Add(retryBase/2 - time.Microsecond)
	if backoff := s.backoffFor(j); s.retryable(j, backoff) {
		t.Fatalf("a %v backoff was armed against a budget shorter than %v", backoff, retryBase/2)
	}
}

// backoffFor must stay within [0.5x, 1.5x] of the capped exponential
// schedule and never overflow.
func TestBackoffSchedule(t *testing.T) {
	s := newTestServer(t, Config{Handler: testHandler})
	defer s.Drain()
	for attempt := 0; attempt < 70; attempt++ { // far past the shift-overflow point
		j := &job{set: 7, attempt: attempt}
		d := s.backoffFor(j)
		ideal := 2 * time.Millisecond << uint(attempt)
		if ideal <= 0 || ideal > 250*time.Millisecond {
			ideal = 250 * time.Millisecond
		}
		lo, hi := ideal/2, ideal+ideal/2
		if d < lo || d > hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
		}
		// Same (set, attempt) must jitter identically: determinism.
		if d2 := s.backoffFor(j); d2 != d {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, d, d2)
		}
	}
}
