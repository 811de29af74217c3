package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	prometheus "repro"
	"repro/internal/chaos"
)

// testHandler is the ordering probe: it returns the session's sequence
// number, which only per-key serialization keeps consistent — two
// requests for one key racing on a mutable Session would corrupt or
// duplicate it immediately under -race.
func testHandler(s *Session, r *http.Request) (int, string) {
	if r.Header.Get("X-Boom") == "1" {
		panic(fmt.Sprintf("chaos for key %q", s.Key))
	}
	s.Data["last"] = s.Key
	return http.StatusOK, fmt.Sprintf("%d", s.Seq)
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Handler == nil && cfg.Backend == nil {
		cfg.Handler = testHandler
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get issues one request through the server's public handler surface.
func get(t *testing.T, h http.Handler, path, key string, hdr map[string]string) (int, string) {
	t.Helper()
	r := httptest.NewRequest("GET", path, nil)
	r.Header.Set("X-Session-Key", key)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.String()
}

// TestPerKeyOrdering is the serving-tier correctness core: concurrent
// clients on a skewed key distribution (a few hot keys taking most of the
// traffic, exercising the whole-set stealer) must observe per-key causal
// order — a client that received sequence N and then sends another
// request for the same key must receive a sequence greater than N, and
// across all clients each key's sequences must be exactly 1..count with
// no duplicates (each request executed exactly once, serialized).
func TestPerKeyOrdering(t *testing.T) {
	s := newTestServer(t, Config{EpochInterval: 5 * time.Millisecond})
	h := s.Handler()

	const (
		hotClients  = 6 // share 2 hot keys — cross-client contention
		coldClients = 8 // one key each
		perClient   = 150
	)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = map[string][]int{} // key -> all sequence numbers returned
	)
	client := func(key string) {
		defer wg.Done()
		last := -1
		for i := 0; i < perClient; i++ {
			code, body := get(t, h, "/bump", key, nil)
			if code != http.StatusOK {
				t.Errorf("key %s: status %d body %q", key, code, body)
				return
			}
			seq := 0
			fmt.Sscanf(body, "%d", &seq)
			if seq <= last {
				t.Errorf("key %s: sequence went %d -> %d; per-key order violated", key, last, seq)
				return
			}
			last = seq
			mu.Lock()
			seen[key] = append(seen[key], seq)
			mu.Unlock()
		}
	}
	for i := 0; i < hotClients; i++ {
		wg.Add(1)
		go client(fmt.Sprintf("hot-%d", i%2))
	}
	for i := 0; i < coldClients; i++ {
		wg.Add(1)
		go client(fmt.Sprintf("cold-%d", i))
	}
	wg.Wait()

	for key, seqs := range seen {
		got := map[int]bool{}
		for _, q := range seqs {
			if got[q] {
				t.Errorf("key %s: sequence %d returned twice (double execution)", key, q)
			}
			got[q] = true
		}
		for want := 1; want <= len(seqs); want++ {
			if !got[want] {
				t.Errorf("key %s: sequence %d missing from 1..%d", key, want, len(seqs))
				break
			}
		}
	}
	if err := s.Drain(); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestGracefulDrainCompleteness checks the drain contract: every request
// admitted before (or racing) Drain gets a definitive response — no
// accepted request is dropped without an answer, no handler goroutine
// hangs — and requests arriving after the flag see a clean 503.
func TestGracefulDrainCompleteness(t *testing.T) {
	s := newTestServer(t, Config{
		EpochInterval: 5 * time.Millisecond,
		Handler: func(sess *Session, r *http.Request) (int, string) {
			time.Sleep(200 * time.Microsecond) // widen the drain race window
			return http.StatusOK, fmt.Sprintf("%d", sess.Seq)
		},
	})
	h := s.Handler()

	const clients, perClient = 16, 50
	var (
		wg       sync.WaitGroup
		answered atomic.Uint64
		rejected atomic.Uint64
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				code, body := get(t, h, "/bump", fmt.Sprintf("key-%d", i%5), nil)
				switch code {
				case http.StatusOK:
					answered.Add(1)
				case http.StatusServiceUnavailable:
					rejected.Add(1)
				default:
					t.Errorf("unexpected status %d body %q", code, body)
				}
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let load build, then drain mid-flight
	if err := s.Drain(); err != nil {
		t.Errorf("drain: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("clients still blocked after drain: an accepted request never got a response")
	}
	if total := answered.Load() + rejected.Load(); total != clients*perClient {
		t.Errorf("answered %d + rejected %d = %d, want %d (a request vanished)",
			answered.Load(), rejected.Load(), answered.Load()+rejected.Load(), clients*perClient)
	}
	if answered.Load() == 0 {
		t.Error("no request was answered before the drain")
	}
}

// TestPoisonedSessionIsolation checks fault containment end to end at the
// HTTP surface: a chaos request 500s with the fault attached, follow-up
// requests for the poisoned key fail fast with the same detail while
// sibling keys keep serving, and the key heals after an epoch rotation.
func TestPoisonedSessionIsolation(t *testing.T) {
	s := newTestServer(t, Config{EpochInterval: time.Hour}) // rotation only when forced below
	h := s.Handler()

	// Warm the victim and a sibling.
	if code, _ := get(t, h, "/bump", "victim", nil); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}
	// The chaos request: its own response must be a 500 carrying the fault.
	code, body := get(t, h, "/bump", "victim", map[string]string{"X-Boom": "1"})
	if code != http.StatusInternalServerError {
		t.Fatalf("chaos request: status %d body %q, want 500", code, body)
	}
	if !strings.Contains(body, "chaos for key") {
		t.Errorf("chaos 500 body lacks fault detail: %q", body)
	}

	// Follow-ups on the poisoned key fail fast, with detail; siblings and
	// concurrent traffic are untouched.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				code, body := get(t, h, "/bump", fmt.Sprintf("sibling-%d", i), nil)
				if code != http.StatusOK {
					t.Errorf("sibling-%d: status %d body %q while victim poisoned", i, code, body)
					return
				}
			}
		}(i)
	}
	for j := 0; j < 5; j++ {
		code, body := get(t, h, "/bump", "victim", nil)
		if code != http.StatusInternalServerError {
			t.Errorf("poisoned key: status %d, want 500", code)
		}
		if !strings.Contains(body, "poisoned") || !strings.Contains(body, "chaos for key") {
			t.Errorf("poisoned 500 body lacks detail: %q", body)
		}
	}
	wg.Wait()

	// Metrics must show the contained panic and the five follow-ups
	// answered unrun behind it: with an hour-long epoch nothing heals.
	if code, body := get(t, h, "/metrics", "scraper", nil); code != http.StatusOK ||
		!strings.Contains(body, "\nss_panics_total 1\n") || !strings.Contains(body, "\nss_requests_dropped_total 5\n") {
		t.Errorf("/metrics = %d, want ss_panics_total 1 and ss_requests_dropped_total 5:\n%s", code, body)
	}

	// Drain performs the final rotation; before it the victim stays
	// poisoned. A fresh server epoch clears poison — exercise via a short
	// rotation server.
	if err := s.Drain(); err != nil {
		t.Errorf("drain: %v", err)
	}

	s2 := newTestServer(t, Config{EpochInterval: 5 * time.Millisecond})
	h2 := s2.Handler()
	if code, _ := get(t, h2, "/bump", "victim", map[string]string{"X-Boom": "1"}); code != http.StatusInternalServerError {
		t.Fatalf("chaos request on s2: status %d, want 500", code)
	}
	healed := false
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		if code, _ := get(t, h2, "/bump", "victim", nil); code == http.StatusOK {
			healed = true
			break
		}
	}
	if !healed {
		t.Error("poisoned key never healed across epoch rotations")
	}
	if err := s2.Drain(); err != nil {
		t.Errorf("drain s2: %v", err)
	}
}

// TestAdmissionAndRateLimiting checks the token bucket at the HTTP
// surface: each key's bucket lives on its Session and is checked at
// delivery, so these drive whole requests through ServeHTTP.
func TestAdmissionAndRateLimiting(t *testing.T) {
	// spendBurst spends key's full bucket and checks the next request is
	// refused.
	spendBurst := func(t *testing.T, h http.Handler, key string) {
		t.Helper()
		for i := 0; i < rateBurst; i++ {
			if code, _ := get(t, h, "/bump", key, nil); code != http.StatusOK {
				t.Fatalf("request %d of the burst: status %d, want 200", i+1, code)
			}
		}
		if code, body := get(t, h, "/bump", key, nil); code != http.StatusTooManyRequests || body != "rate limit exceeded\n" {
			t.Fatalf("request %d: %d %q, want 429 once the bucket of %d is spent", rateBurst+1, code, body, rateBurst)
		}
	}

	// A hammered key is served its rateBurst requests, then 429s without
	// touching its siblings.
	t.Run("burst", func(t *testing.T) {
		s := newTestServer(t, Config{
			EpochInterval: 5 * time.Millisecond,
			Rate:          1, // one request/sec per key: no token refills within the burst
		})
		h := s.Handler()
		spendBurst(t, h, "hammered")
		if code, _ := get(t, h, "/bump", "innocent", nil); code != http.StatusOK {
			t.Errorf("sibling key rate-limited alongside the hammered one")
		}
		if n := s.metrics.rateRejects.Load(); n != 1 {
			t.Errorf("rate rejects counted %d, want 1", n)
		}
		if err := s.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	// 1/Rate after the bucket ran dry it holds exactly one token again.
	t.Run("refill", func(t *testing.T) {
		const rate = 4 // a token every 250ms
		s := newTestServer(t, Config{EpochInterval: 5 * time.Millisecond, Rate: rate})
		defer s.Drain()
		h := s.Handler()
		spendBurst(t, h, "paced")
		time.Sleep(time.Second / rate)
		if code, _ := get(t, h, "/bump", "paced", nil); code != http.StatusOK {
			t.Fatalf("after 1/Rate: status %d, want 200 on the refilled token", code)
		}
		if code, _ := get(t, h, "/bump", "paced", nil); code != http.StatusTooManyRequests {
			t.Fatalf("second request after 1/Rate: status %d, want 429 (one token refilled, not two)", code)
		}
	})

	// Concurrent callers on one key race for its bucket through the role:
	// exactly rateBurst of them are admitted.
	t.Run("concurrency", func(t *testing.T) {
		s := newTestServer(t, Config{EpochInterval: 5 * time.Millisecond, Rate: 0.01})
		defer s.Drain()
		h := s.Handler()
		const callers, each = 16, 4
		var ok, limited atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					switch code, _ := get(t, h, "/bump", "contended", nil); code {
					case http.StatusOK:
						ok.Add(1)
					case http.StatusTooManyRequests:
						limited.Add(1)
					default:
						t.Errorf("status %d", code)
					}
				}
			}()
		}
		wg.Wait()
		if ok.Load() != rateBurst || limited.Load() != callers*each-rateBurst {
			t.Fatalf("%d callers x %d requests: %d admitted, %d limited; want %d admitted",
				callers, each, ok.Load(), limited.Load(), rateBurst)
		}
		if n := s.metrics.rateRejects.Load(); n != callers*each-rateBurst {
			t.Errorf("rate rejects counted %d, want %d", n, callers*each-rateBurst)
		}
	})

	// A request whose first backend attempt fails and is served on retry
	// spends one token, not two: the retry is delivered again but pays no
	// token, so rateBurst-1 more requests fit in the bucket.
	t.Run("retry-spends-one-token", func(t *testing.T) {
		const key = "retried"
		s := newTestServer(t, Config{
			Backend: &chaosBackend{
				h:      testHandler,
				errors: chaos.ErrorAt(prometheus.StringSet(key), 1),
			},
			RetryMax: 1,
			Rate:     0.01,
		})
		defer s.Drain()
		h := s.Handler()
		spendBurst(t, h, key)
		if n := s.metrics.retries.Load(); n != 1 {
			t.Fatalf("retries %d, want 1: the first request's first attempt should have failed", n)
		}
	})

	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a config with no handler")
	}
}

// TestMetricsExposition smoke-tests the hand-written Prometheus text
// format: drive traffic (including a fault), scrape, and check the
// per-shard latency histograms, backlog gauges, and counters all
// render.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{EpochInterval: 5 * time.Millisecond})
	h := s.Handler()
	for i := 0; i < 40; i++ {
		get(t, h, "/bump", fmt.Sprintf("key-%d", i%7), nil)
	}
	get(t, h, "/bump", "chaos", map[string]string{"X-Boom": "1"})

	code, body := get(t, h, "/metrics", "scraper", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"ss_requests_served_total",
		"ss_request_latency_microseconds_bucket{shard=\"0\",le=\"50\"}",
		"ss_request_latency_microseconds_quantile{shard=\"7\",q=\"0.99\"}",
		"ss_delegate_backlog{delegate=\"1\"}",
		"ss_panics_total 1",
		"ss_runtime_epochs_total",
		"ss_runtime_helped_ops_total",
		"ss_runtime_sheds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, `shard="8"`) {
		t.Errorf("/metrics renders more than the %d latency shards", latencyShards)
	}
	if code, body := get(t, h, "/healthz", "probe", nil); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if err := s.Drain(); err != nil {
		t.Errorf("drain: %v", err)
	}
	if code, _ := get(t, h, "/healthz", "probe", nil); code != http.StatusServiceUnavailable {
		t.Error("healthz not 503 after drain")
	}
}

// waitQueued waits until at least n requests are delegated and not yet
// finished: the sum of the delegate backlogs.
func waitQueued(t *testing.T, s *Server, n uint64) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var queued uint64
		for _, d := range s.rt.QueueDepths(nil) {
			queued += d
		}
		if queued >= n {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("%d requests queued after 10s, want %d", queued, n)
		}
	}
}

// TestQueuedBehindPanicAnswersWithoutRotation: requests queued on a key
// behind one whose handler panics answer 500 with its fault in the same
// epoch, at the queue front; none waits for a rotation to be answered.
func TestQueuedBehindPanicAnswersWithoutRotation(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		EpochInterval: time.Hour,
		Handler: func(sess *Session, r *http.Request) (int, string) {
			if r.Header.Get("X-Gate") == "1" {
				<-gate
			}
			return testHandler(sess, r)
		},
	})
	defer s.Drain()
	h := s.Handler()
	type answer struct {
		code int
		body string
	}
	answers := make(chan answer, 4)
	send := func(hdr map[string]string) {
		go func() {
			code, body := get(t, h, "/bump", "victim", hdr)
			answers <- answer{code, body}
		}()
	}
	send(map[string]string{"X-Gate": "1", "X-Boom": "1"})
	waitQueued(t, s, 1)
	for i := 0; i < 3; i++ {
		send(nil)
	}
	waitQueued(t, s, 4)
	close(gate)
	timeout := time.After(5 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case a := <-answers:
			if a.code != http.StatusInternalServerError || !strings.Contains(a.body, `chaos for key "victim"`) {
				t.Errorf("answer %d: %d %q, want a 500 with the panic value", i, a.code, a.body)
			}
		case <-timeout:
			t.Errorf("%d of 4 requests answered within 5s of the panic", i)
			s.role.Lock()
			s.rotate() // answer the rest, so Drain can finish
			s.role.Unlock()
			return
		}
	}
}

// TestSessionSize: a Session stays in the 80-byte size class; a bigger one
// moves every session of a large table up a class.
func TestSessionSize(t *testing.T) {
	if got := unsafe.Sizeof(Session{}); got > 80 {
		t.Fatalf("Session is %d bytes, want at most 80", got)
	}
}
