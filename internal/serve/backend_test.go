package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// chaosBackend runs h behind deterministic injectors, the fake through
// which tests reach the retry ladder: an attempt the errors injector fires
// on fails without running h, and a latency spike, when one is set,
// sleeps before the attempt.
type chaosBackend struct {
	h       Handler
	errors  *chaos.Errors
	latency *chaos.Latency
}

func (b *chaosBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	if b.latency != nil {
		time.Sleep(b.latency.Delay(s.Set))
	}
	if err := b.errors.Err(s.Set); err != nil {
		return 0, "", err
	}
	return handlerBackend{b.h}.Serve(ctx, s, r)
}

// TestHandlerBackendCopiesRequestOnlyForADeadline: with no deadline to
// carry the handler gets the caller's request itself (no per-call copy) and
// its context; with one it gets a copy whose context has the deadline,
// and the caller's request is left alone.
func TestHandlerBackendCopiesRequestOnlyForADeadline(t *testing.T) {
	var got *http.Request
	hb := handlerBackend{func(_ *Session, r *http.Request) (int, string) {
		got = r
		return http.StatusOK, ""
	}}
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

// signalingFailBackend fails every call and signals each attempt, so a
// test can synchronize with the retry ladder.
type signalingFailBackend struct {
	attempts chan struct{}
}

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

// TestHealthzDegradationReport: the /healthz body must expose the two
// degradation gauges an orchestrator keys off — poisoned keys and
// watchdog-degraded keys — on both the 200 and the 503.
func TestHealthzDegradationReport(t *testing.T) {
	s := watchdogServer(t, Config{Handler: slowHandler(nil)})
	h := s.Handler()
	healthz := func(wantCode int, want ...string) {
		t.Helper()
		code, body := get(t, h, "/healthz", "k", nil)
		if code != wantCode {
			t.Fatalf("healthz: %d %q, want %d", code, body, wantCode)
		}
		for _, w := range want {
			if !strings.Contains(body, w+"\n") {
				t.Fatalf("healthz body %q does not report %q", body, w)
			}
		}
	}
	// degradeAndPoison trips the watchdog on "laggard" and panics "victim".
	degradeAndPoison := func() {
		t.Helper()
		for i := 0; i < slowTrips; i++ {
			get(t, h, "/", "laggard", map[string]string{"X-Slow": "1"})
		}
		if code, _ := get(t, h, "/", "victim", map[string]string{"X-Boom": "1"}); code != http.StatusInternalServerError {
			t.Fatalf("panic request status %d, want 500", code)
		}
	}

	healthz(http.StatusOK, "ok", "poisoned_keys 0", "degraded_keys 0")
	degradeAndPoison()
	healthz(http.StatusOK, "ok", "poisoned_keys 1", "degraded_keys 1")

	// A rotation heals both keys: the gauges read 0, the victim serves
	// again, and running it clears the stale fault its Session held.
	rotateNow(s)
	healthz(http.StatusOK, "ok", "poisoned_keys 0", "degraded_keys 0")
	if code, body := get(t, h, "/", "victim", nil); code != http.StatusOK {
		t.Fatalf("healed key: %d %q, want 200", code, body)
	}
	s.role.Lock()
	for _, sess := range s.sessions {
		if sess.Key == "victim" && sess.fault != nil {
			t.Errorf("healed key's Session still holds its fault %v", sess.fault)
		}
	}
	s.role.Unlock()

	// Draining answers 503 with the same detail.
	degradeAndPoison()
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	healthz(http.StatusServiceUnavailable, "draining", "poisoned_keys 1", "degraded_keys 1")
}
