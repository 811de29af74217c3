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

// TestChaosProfileAgainstLiveServer is the serving tier's robustness
// harness, run in-process under the race detector against a real TCP
// socket: the handler sleeps 50ms on every 40th operation of each key,
// under a request budget and a slow-key watchdog armed below the spike,
// with 90/10 key skew. The assertions are the tier's contract: every
// request resolves (zero hung), per-key order holds, healthy p99 stays
// bounded within the error budget, no key degrades (a key's spikes are 40
// operations apart, never slowTrips in a row), and drain completes with
// nothing unanswered.
func TestChaosProfileAgainstLiveServer(t *testing.T) {
	spikes := chaos.SpikeEvery(40, 50*time.Millisecond)
	srv, err := serve.New(serve.Config{
		Handler: func(s *serve.Session, r *http.Request) (int, string) {
			time.Sleep(spikes.Delay(s.Set))
			return counterHandler(s, r)
		},
		RequestTimeout: 2 * time.Second,
		SlowThreshold:  40 * time.Millisecond,
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
		MaxErrorRate: 0.05,
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
	if spikes.Fired() == 0 {
		t.Fatal("no latency spike fired: the profile exercised nothing")
	}
	m, err := Scrape(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("ss_degraded_keys_total"); !ok || v != 0 {
		t.Errorf("ss_degraded_keys_total = %v (ok=%v), want 0: spaced spikes degraded a key", v, ok)
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
ss_delegate_backlog{delegate="1"} 3
ss_delegate_backlog{delegate="2"} 0

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
	if v, ok := m.Value(`ss_delegate_backlog{delegate="1"}`); !ok || v != 3 {
		t.Fatalf("labeled gauge = %v (ok=%v)", v, ok)
	}
	if _, ok := m.Value("ss_delegate_backlog"); ok {
		t.Fatal("bare name matched a labeled series")
	}
}

// TestScrapeTimesOut: a server that never answers fails the scrape after
// the client's timeout instead of hanging the caller.
func TestScrapeTimesOut(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release) // runs first: ts.Close waits for the handler
	done := make(chan error, 1)
	go func() {
		_, err := Scrape(ts.URL + "/metrics")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Scrape of a wedged server returned no error")
		}
	case <-time.After(2 * scrapeClient.Timeout):
		t.Fatalf("Scrape still blocked after %v", 2*scrapeClient.Timeout)
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
