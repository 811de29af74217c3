package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// counterHandler mirrors ssserve's /bump response shape, which the
// order checker parses.
func counterHandler(s *serve.Session, r *http.Request) (int, string) {
	return http.StatusOK, fmt.Sprintf("key=%s seq=%d\n", s.Key, s.Seq)
}

// TestChaosProfileAgainstLiveServer is the acceptance harness the issue
// specifies, run in-process under the race detector against a real TCP
// socket: a two-backend pool where one backend carries the full chaos
// profile — seeded 5%% errors, periodic latency spikes, and one flap
// window long enough to open its breaker — under 90/10 key skew. The
// assertions are the serving tier's robustness contract: every request
// resolves (zero hung), per-key order holds across retries and
// failovers, healthy p99 stays bounded, the flapping backend's breaker
// opens AND recovers, and drain completes with nothing unanswered.
func TestChaosProfileAgainstLiveServer(t *testing.T) {
	good := serve.NewHandlerBackend("steady", counterHandler)
	flaky := &serve.ChaosBackend{
		Inner:   serve.NewHandlerBackend("flaky", counterHandler),
		Errors:  chaos.SeededErrors(0xC0FFEE, 0.05),
		Latency: chaos.SpikeEvery(40, 50*time.Millisecond),
		Flap:    chaos.FlapBetween(60, 80),
	}
	pool := serve.NewPool(3, 25*time.Millisecond, good, flaky)

	srv, err := serve.New(serve.Config{
		Backend:        pool,
		RequestTimeout: 2 * time.Second,
		RetryMax:       3,
		EpochInterval:  50 * time.Millisecond,
		MaxInflight:    256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := Profile{
		BaseURL:      ts.URL,
		Workers:      8,
		Requests:     1500,
		HotKeys:      2,
		ColdKeys:     64,
		HotFraction:  0.9,
		Seed:         7,
		Timeout:      10 * time.Second, // hang detector, not a latency bound
		MaxP99:       2 * time.Second,  // generous: race-instrumented run
		MaxErrorRate: 0.05,             // injected errors must mostly heal via retry/failover
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	for _, v := range res.Check(p) {
		t.Errorf("violation: %s", v)
	}
	if res.Healthy == 0 {
		t.Fatal("no healthy responses at all")
	}

	// The flap window must have opened the flaky backend's breaker at
	// least once, and once the window passed a half-open probe must have
	// closed it again. Recovery can need a few extra requests (probes
	// only run when traffic arrives), so poll with a deadline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := Scrape(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		opens := m.Sum("ss_breaker_opens_total")
		state, ok := m.Value(`ss_backend_state{backend="flaky"}`)
		if opens >= 1 && ok && state == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never cycled: opens=%v state=%v (ok=%v)", opens, state, ok)
		}
		// Nudge traffic so half-open probes happen.
		if _, _, err := doGet(http.DefaultClient, ts.URL+"/bump", "probe"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Drain with zero accepted-but-unanswered requests.
	ts.Close()
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDeterministicKeyStream: same seed, same request mix — the
// property that makes a chaos run replayable.
func TestDeterministicKeyStream(t *testing.T) {
	p := Profile{BaseURL: "http://unused"}
	if err := p.withDefaults(); err != nil {
		t.Fatal(err)
	}
	stream := func(seed uint64) []string {
		w := &worker{rng: seed ^ 0x9e3779b97f4a7c15, last: map[string]uint64{}}
		keys := make([]string, 200)
		for i := range keys {
			keys[i] = pickKey(w, &p)
		}
		return keys
	}
	a, b := stream(7), stream(7)
	hot := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %s vs %s", i, a[i], b[i])
		}
		if strings.HasPrefix(a[i], "hot-") {
			hot++
		}
	}
	// 90% hot ± sampling noise.
	if hot < 150 || hot > 200 {
		t.Fatalf("hot fraction off: %d/200 hot keys", hot)
	}
	if c := stream(8); a[0] == c[0] && a[1] == c[1] && a[2] == c[2] && a[3] == c[3] {
		t.Fatal("different seeds produced the same key prefix")
	}
}

func TestScrapeParsesExposition(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `# HELP ss_requests_total Requests served.
# TYPE ss_requests_total counter
ss_requests_total 42
ss_breaker_opens_total{backend="flaky"} 2
ss_breaker_opens_total{backend="steady"} 0
ss_backend_state{backend="flaky"} 1

malformed line without value
`)
	}))
	defer ts.Close()

	m, err := Scrape(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("ss_requests_total"); !ok || v != 42 {
		t.Fatalf("ss_requests_total = %v (ok=%v)", v, ok)
	}
	if got := m.Sum("ss_breaker_opens_total"); got != 2 {
		t.Fatalf("Sum(opens) = %v, want 2", got)
	}
	if v, ok := m.Value(`ss_backend_state{backend="flaky"}`); !ok || v != 1 {
		t.Fatalf("labeled gauge = %v (ok=%v)", v, ok)
	}
	if _, ok := m.Value("ss_backend_state"); ok {
		t.Fatal("bare name matched a labeled series")
	}
}

func TestCheckFlagsViolations(t *testing.T) {
	p := Profile{BaseURL: "http://unused", MaxP99: 100 * time.Millisecond, MaxErrorRate: 0.01}
	r := &Result{
		Requests: 100,
		ByStatus: map[int]int{200: 90, 502: 5, 504: 5},
		Hung:     1,
		DupSeqs:  2,
		P99:      200 * time.Millisecond,
	}
	v := r.Check(p)
	want := []string{"hung", "duplicate", "p99", "error rate"}
	for _, w := range want {
		found := false
		for _, msg := range v {
			if strings.Contains(msg, w) {
				found = true
			}
		}
		if !found {
			t.Fatalf("violations %q missing %q", v, w)
		}
	}

	// A clean run with only shed 5xx (503/504) passes the error budget.
	clean := &Result{Requests: 100, ByStatus: map[int]int{200: 80, 503: 10, 504: 10}, P99: 50 * time.Millisecond}
	if v := clean.Check(p); len(v) != 0 {
		t.Fatalf("clean run flagged: %q", v)
	}
}

func TestParseSeq(t *testing.T) {
	cases := []struct {
		body string
		n    uint64
		ok   bool
	}{
		{"key=hot-1 seq=17\n", 17, true},
		{"key=x seq=3", 3, true},
		{"not a counter body", 0, false},
		{"seq=abc\n", 0, false},
	}
	for _, c := range cases {
		n, ok := parseSeq(c.body)
		if n != c.n || ok != c.ok {
			t.Fatalf("parseSeq(%q) = %d,%v want %d,%v", c.body, n, ok, c.n, c.ok)
		}
	}
}

// TestLatenciesAreExactOrderStatistics: P50, P99 and Max are latencies a
// request saw, by nearest rank, not the bounds of buckets holding them.
// Over 1…999 µs plus one 1,300 µs outlier (n = 1,000, shuffled), the ranks
// are 500, 990 and 1,000, and Max is the outlier itself.
func TestLatenciesAreExactOrderStatistics(t *testing.T) {
	lats := make([]time.Duration, 0, 1000)
	for i := 1; i <= 999; i++ {
		lats = append(lats, time.Duration((i*389)%999+1)*time.Microsecond)
	}
	lats = append(lats[:500], append([]time.Duration{1300 * time.Microsecond}, lats[500:]...)...)
	var r Result
	r.setLatencies(lats)
	if r.P50 != 500*time.Microsecond || r.P99 != 990*time.Microsecond || r.Max != 1300*time.Microsecond {
		t.Fatalf("p50 %v p99 %v max %v, want 500µs 990µs 1.3ms", r.P50, r.P99, r.Max)
	}

	one := Result{}
	one.setLatencies([]time.Duration{7 * time.Millisecond})
	if one.P50 != 7*time.Millisecond || one.P99 != 7*time.Millisecond || one.Max != 7*time.Millisecond {
		t.Fatalf("one sample: p50 %v p99 %v max %v, want 7ms each", one.P50, one.P99, one.Max)
	}
	var none Result
	none.setLatencies(nil)
	if none.P50 != 0 || none.P99 != 0 || none.Max != 0 {
		t.Fatalf("no samples: p50 %v p99 %v max %v, want 0", none.P50, none.P99, none.Max)
	}
}
