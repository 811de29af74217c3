// Package loadgen is the adversarial load-generator harness for the
// serving tier: a deterministic, skewed, chaos-tolerant HTTP client
// fleet that drives a live ssserve endpoint and then ASSERTS on what
// came back — latency quantiles, error budgets, per-key causal order,
// and the one property no dashboard shows: that every request got an
// answer (an expired request must resolve to a definitive 504, never a
// parked connection).
//
// The engine is a library first (the serve stress suite runs it in-proc
// against an httptest socket under -race) and a CLI second (cmd/ssload
// wraps it for the CI smoke job against a real ssserve process). Both
// share the same Profile/Result/Check surface, so a bound that holds in
// the race-instrumented stress test is the same bound CI enforces on
// the real binary.
//
// Key-order checking leans on the ssserve counter handler's response
// shape ("key=K seq=N"): per-key sequence numbers are the serving
// tier's observable serialization order. Two invariants are checked:
// a worker that issues requests for one key back-to-back must see
// strictly increasing sequences (per-key causal order, client view),
// and across ALL workers no sequence for a key may repeat (each request
// executed exactly once, never overlapped — duplicates are the first
// symptom of a key served by two delegates at once).
package loadgen

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Profile parameterizes one load run. Zero values take the documented
// defaults; assertion bounds at zero are simply not enforced by Check.
type Profile struct {
	BaseURL string // target, e.g. http://127.0.0.1:8080 (required)

	Workers  int // concurrent client goroutines (default 8)
	Requests int // total requests across all workers (default 1000)

	// Key skew: with probability HotFraction a request targets one of
	// HotKeys hot keys, otherwise one of ColdKeys cold keys — the 90/10
	// shape that exercises the router's whole-set stealer.
	HotKeys     int     // default 2
	ColdKeys    int     // default 64
	HotFraction float64 // default 0.9

	// Seed makes the key/choice stream deterministic: same seed, same
	// request sequence per worker.
	Seed uint64

	// Timeout is the per-request client budget and the hang detector: a
	// request the server never answers shows up as Result.Hung, which
	// Check always treats as a violation. Default 5s.
	Timeout time.Duration

	// Assertion bounds, enforced by Check when non-zero.
	MaxP99       time.Duration // p99 over healthy (2xx) responses
	MaxErrorRate float64       // max fraction of 5xx responses other than expected 504/503 sheds

	// TrackAcks records every acknowledged (key, seq) with its client
	// receive time in Result.Acks — the evidence base the crash-recovery
	// harness computes durable floors from (see recovery.go).
	TrackAcks bool

	// Stop, when non-nil, ends the run early: workers check it between
	// requests and return without issuing more. The recovery harness
	// closes it right after SIGKILLing the server, so phase-1 "requests"
	// are real traffic, not a tail of connection-refused spins.
	Stop <-chan struct{}
}

// AckPoint is one acknowledged response: the sequence the server returned
// and when the client finished reading it. An AckPoint is the client-side
// definition of "acked" that the fsync loss bounds are stated over.
type AckPoint struct {
	Seq uint64
	At  time.Time
}

func (p *Profile) withDefaults() error {
	if p.BaseURL == "" {
		return fmt.Errorf("loadgen: Profile.BaseURL is required")
	}
	if _, err := url.Parse(p.BaseURL); err != nil {
		return fmt.Errorf("loadgen: bad BaseURL: %w", err)
	}
	if p.Workers <= 0 {
		p.Workers = 8
	}
	if p.Requests <= 0 {
		p.Requests = 1000
	}
	if p.HotKeys <= 0 {
		p.HotKeys = 2
	}
	if p.ColdKeys <= 0 {
		p.ColdKeys = 64
	}
	if p.HotFraction <= 0 || p.HotFraction > 1 {
		p.HotFraction = 0.9
	}
	if p.Timeout <= 0 {
		p.Timeout = 5 * time.Second
	}
	return nil
}

// Result is what one Run observed. Latency order statistics cover
// healthy (2xx) responses only: an injected-error 502 or a shed 503
// answers fast by design and would flatter them.
type Result struct {
	Requests int         // requests issued
	ByStatus map[int]int // responses by HTTP status
	Hung     int         // client-timeout expirations: requests never answered
	Errors   int         // transport failures (refused, reset, ...)

	DupSeqs         int      // (key, seq) pairs seen more than once across the fleet
	OrderViolations []string // first few per-worker monotonicity breaks, human-readable

	// P50, P99 and Max are nearest-rank order statistics of the healthy
	// responses' exact latencies (see setLatencies); 0 with none.
	P50, P99, Max time.Duration
	Healthy       int // 2xx count feeding them

	// Acks collects acknowledged sequences per key, in receive order per
	// worker (interleaved across workers). Nil unless Profile.TrackAcks.
	Acks map[string][]AckPoint
}

// MaxAckedBefore returns the highest sequence acknowledged for key at or
// before cutoff (zero cutoff = no bound, consider every ack). This is the
// durable floor: under fsync=always the floor uses no cutoff; under
// fsync=rotation the caller passes killTime minus a rotation margin.
func (r *Result) MaxAckedBefore(key string, cutoff time.Time) uint64 {
	var max uint64
	for _, a := range r.Acks[key] {
		if !cutoff.IsZero() && a.At.After(cutoff) {
			continue
		}
		if a.Seq > max {
			max = a.Seq
		}
	}
	return max
}

// run-internal per-worker state: splitmix64 stream + last-seen seq per key.
type worker struct {
	rng  uint64
	last map[string]uint64
}

func (w *worker) next() uint64 {
	w.rng += 0x9e3779b97f4a7c15
	z := w.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes the profile against the live server and returns what it
// observed. The error return covers harness misuse (bad profile), not
// server misbehavior — that lands in the Result for Check to judge.
func Run(p Profile) (*Result, error) {
	if err := p.withDefaults(); err != nil {
		return nil, err
	}
	base := strings.TrimRight(p.BaseURL, "/")

	client := &http.Client{
		Timeout: p.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        p.Workers * 2,
			MaxIdleConnsPerHost: p.Workers * 2,
		},
	}
	defer client.CloseIdleConnections()

	res := &Result{ByStatus: map[int]int{}}
	if p.TrackAcks {
		res.Acks = map[string][]AckPoint{}
	}
	var (
		mu   sync.Mutex // guards res, seen and lats
		seen = map[string]map[uint64]bool{}
		lats []time.Duration // one per healthy response
		wg   sync.WaitGroup
	)

	perWorker := p.Requests / p.Workers
	extra := p.Requests % p.Workers
	for wi := 0; wi < p.Workers; wi++ {
		n := perWorker
		if wi < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(wi, n int) {
			defer wg.Done()
			w := &worker{rng: p.Seed ^ (uint64(wi)+1)*0x9e3779b97f4a7c15, last: map[string]uint64{}}
			for i := 0; i < n; i++ {
				select {
				case <-p.Stop: // nil channel never fires
					return
				default:
				}
				key := pickKey(w, &p)
				start := time.Now()
				status, body, err := doGet(client, base+"/bump", key)
				lat := time.Since(start)

				mu.Lock()
				res.Requests++
				if err != nil {
					if isTimeout(err) {
						res.Hung++
					} else {
						res.Errors++
					}
					mu.Unlock()
					continue
				}
				res.ByStatus[status]++
				if status >= 200 && status < 300 {
					res.Healthy++
					lats = append(lats, lat)
					if seq, ok := parseSeq(body); ok {
						if prev, dup := w.last[key]; dup && seq <= prev {
							if len(res.OrderViolations) < 8 {
								res.OrderViolations = append(res.OrderViolations,
									fmt.Sprintf("worker %d key %s: seq %d after %d", wi, key, seq, prev))
							}
						}
						w.last[key] = seq
						ks := seen[key]
						if ks == nil {
							ks = map[uint64]bool{}
							seen[key] = ks
						}
						if ks[seq] {
							res.DupSeqs++
						}
						ks[seq] = true
						if p.TrackAcks {
							res.Acks[key] = append(res.Acks[key], AckPoint{Seq: seq, At: start.Add(lat)})
						}
					}
				}
				mu.Unlock()
			}
		}(wi, n)
	}
	wg.Wait()

	res.setLatencies(lats)
	return res, nil
}

// setLatencies sorts lats in place and sets P50, P99 and Max from them by
// the nearest-rank method: the p-th percentile is element ⌈p·n/100⌉−1 of
// the sorted slice, a latency some request actually saw.
func (r *Result) setLatencies(lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	slices.Sort(lats)
	rank := func(p int) time.Duration { return lats[(p*len(lats)+99)/100-1] }
	r.P50, r.P99, r.Max = rank(50), rank(99), rank(100)
}

func pickKey(w *worker, p *Profile) string {
	r := w.next()
	// Top 53 bits as a [0,1) fraction — enough resolution for a skew knob.
	if float64(r>>11)/float64(1<<53) < p.HotFraction {
		return fmt.Sprintf("hot-%d", w.next()%uint64(p.HotKeys))
	}
	return fmt.Sprintf("cold-%d", w.next()%uint64(p.ColdKeys))
}

func doGet(c *http.Client, u, key string) (int, string, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("X-Session-Key", key)
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(b), nil
}

func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return ne.Timeout()
	}
	return false
}

// parseSeq extracts N from a "key=K seq=N" counter-handler body.
func parseSeq(body string) (uint64, bool) {
	i := strings.Index(body, "seq=")
	if i < 0 {
		return 0, false
	}
	s := strings.TrimSpace(body[i+4:])
	if j := strings.IndexByte(s, '\n'); j >= 0 {
		s = s[:j]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

// Check evaluates the profile's assertions against the result and
// returns the violations (empty = the run passed). Hung requests and
// order violations are unconditional failures; latency and error-rate
// bounds apply only when the profile sets them.
func (r *Result) Check(p Profile) []string {
	_ = p.withDefaults()
	var v []string
	if r.Hung > 0 {
		v = append(v, fmt.Sprintf("%d requests hung past the %v client budget (every request must resolve)", r.Hung, p.Timeout))
	}
	if r.Errors > 0 {
		v = append(v, fmt.Sprintf("%d transport errors", r.Errors))
	}
	if r.DupSeqs > 0 {
		v = append(v, fmt.Sprintf("%d duplicate (key, seq) pairs: per-key execution overlapped", r.DupSeqs))
	}
	for _, o := range r.OrderViolations {
		v = append(v, "per-key order violation: "+o)
	}
	if p.MaxP99 > 0 && r.P99 > p.MaxP99 {
		v = append(v, fmt.Sprintf("healthy p99 %v exceeds bound %v", r.P99, p.MaxP99))
	}
	if p.MaxErrorRate > 0 && r.Requests > 0 {
		// 504 (expired budget) and 503 (sheds, backpressure) are the tier
		// answering honestly under chaos; 500/502 and anything else 5xx
		// count against the budget.
		bad := 0
		for status, n := range r.ByStatus {
			if status >= 500 && status != 503 && status != 504 {
				bad += n
			}
		}
		if rate := float64(bad) / float64(r.Requests); rate > p.MaxErrorRate {
			v = append(v, fmt.Sprintf("error rate %.3f (%d/%d non-shed 5xx) exceeds budget %.3f",
				rate, bad, r.Requests, p.MaxErrorRate))
		}
	}
	return v
}

// String renders the run report the way cmd/ssload prints it.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d  healthy %d  hung %d  transport-errors %d\n",
		r.Requests, r.Healthy, r.Hung, r.Errors)
	statuses := make([]int, 0, len(r.ByStatus))
	for s := range r.ByStatus {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		fmt.Fprintf(&b, "  status %d: %d\n", s, r.ByStatus[s])
	}
	fmt.Fprintf(&b, "healthy latency: p50 %v  p99 %v  max %v\n", r.P50, r.P99, r.Max)
	if r.DupSeqs > 0 || len(r.OrderViolations) > 0 {
		fmt.Fprintf(&b, "ORDER: %d duplicate seqs, %d monotonicity breaks\n", r.DupSeqs, len(r.OrderViolations))
	}
	return b.String()
}
