package serve

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/durable"
	"repro/internal/spsc"
)

// Tests for what the program-context role makes reachable: many request
// goroutines, the rotation timer, retry timers, Drain and kill all taking
// one mutex to be the runtime's producer, with no goroutine in between.

// chainHandler makes a key's state a function of the exact order its
// requests executed in: a counter and a rolling hash over request ids.
func chainHandler(s *Session, r *http.Request) (int, string) {
	h := fnv.New64a()
	h.Write([]byte(s.Data["h"]))
	h.Write([]byte(r.Header.Get("X-Req")))
	n, _ := strconv.Atoi(s.Data["n"])
	s.Data["n"] = strconv.Itoa(n + 1)
	s.Data["h"] = fmt.Sprintf("%016x", h.Sum64())
	return http.StatusOK, s.Data["n"] + " " + s.Data["h"]
}

// ack is one answered request of a hammer run.
type ack struct {
	key, id, body string
	n             int // the key's counter after this request
}

// hammer runs callers closed-loop clients over keys, each request carrying a
// unique id, and returns every answer. It fails the test on a non-200, on a
// caller seeing a key's counter go backwards, and on a (key, counter) pair
// answered twice.
func hammer(t *testing.T, h http.Handler, callers, perCaller int, keys []string) []ack {
	t.Helper()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		acks []ack
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := map[string]int{}
			for i := 0; i < perCaller; i++ {
				a := ack{key: keys[(c+i)%len(keys)], id: fmt.Sprintf("%d.%d", c, i)}
				var code int
				code, a.body = get(t, h, "/", a.key, map[string]string{"X-Req": a.id})
				if code != http.StatusOK {
					t.Errorf("caller %d key %s: status %d body %q", c, a.key, code, a.body)
					return
				}
				fmt.Sscanf(a.body, "%d", &a.n)
				if a.n <= last[a.key] {
					t.Errorf("caller %d key %s: counter went %d -> %d", c, a.key, last[a.key], a.n)
					return
				}
				last[a.key] = a.n
				mu.Lock()
				acks = append(acks, a)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, a := range acks {
		if k := fmt.Sprintf("%s/%d", a.key, a.n); seen[k] {
			t.Errorf("%s answered twice", k)
		} else {
			seen[k] = true
		}
	}
	return acks
}

// TestRoleManyCallersPerKeyOrder: 32 request goroutines on 3 keys, each its
// own producer for the instant it holds the role. Per-key order is
// role-acquisition order, so counters are strictly increasing per caller,
// duplicate-free across the fleet, and every key's session ends at exactly
// the number of requests acknowledged for it.
func TestRoleManyCallersPerKeyOrder(t *testing.T) {
	s := newTestServer(t, Config{EpochInterval: 5 * time.Millisecond, Handler: chainHandler})
	keys := []string{"k0", "k1", "k2"}
	acks := hammer(t, s.Handler(), 32, 100, keys)
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	perKey := map[string]uint64{}
	for _, a := range acks {
		perKey[a.key]++
	}
	for _, sess := range s.sessions {
		if sess.Seq != perKey[sess.Key] {
			t.Errorf("key %s: final Seq %d, %d requests acknowledged", sess.Key, sess.Seq, perKey[sess.Key])
		}
	}
}

// TestRoleUnderRotationRetryChaos saturates the role from every direction
// at once: 32 callers on a 3-delegate pool, a 1 ms rotation timer, and retry
// timers from a backend that fails a fifth of its attempts and spikes now
// and then. The rotation timer must keep
// getting the role — a sync.Mutex waiter that has waited 1 ms is handed the
// lock ahead of new arrivals, so callers cannot starve it — and each key's
// answers must be byte-identical to replaying its requests one at a time, in
// counter order, on a fresh server.
func TestRoleUnderRotationRetryChaos(t *testing.T) {
	const interval = time.Millisecond
	s := newTestServer(t, Config{
		EpochInterval: interval,
		Delegates:     3,
		RetryMax:      20,
		Backend: &chaosBackend{
			h:       chainHandler,
			errors:  chaos.SeededErrors(7, 0.2),
			latency: chaos.SeededLatency(9, 0.02, 300*time.Microsecond),
		},
	})
	h := s.Handler()
	keys := []string{"k0", "k1", "k2"}
	epochs0, start := s.Stats().Epochs, time.Now()
	acks := hammer(t, h, 32, 60, keys)
	elapsed := time.Since(start)
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := s.Stats()
	if got, floor := st.Epochs-epochs0, uint64(elapsed/(20*interval)); got < 3 || got < floor {
		t.Errorf("%d rotations in %v of saturation, want at least %d: the timer is being starved of the role", got, elapsed, max(3, floor))
	}
	if s.metrics.retries.Load() == 0 {
		t.Error("no retries: the drill did not exercise the retry timers")
	}

	sort.Slice(acks, func(i, j int) bool { return acks[i].n < acks[j].n })
	replay := newTestServer(t, Config{EpochInterval: time.Hour, Handler: chainHandler})
	defer replay.Drain()
	rh := replay.Handler()
	for _, a := range acks {
		if _, body := get(t, rh, "/", a.key, map[string]string{"X-Req": a.id}); body != a.body {
			t.Fatalf("key %s request %s: served %q, sequential replay gives %q", a.key, a.id, a.body, body)
		}
	}
}

// TestDrainWithCallersBlockedOnTheRole drains a server whose role is stuck:
// one delegate sits in a slow handler, its program lane has filled, one
// caller is parked inside the blocking push holding the role, and the rest
// of the inflight budget waits on the mutex behind it. Nothing admitted may
// go unanswered: the request in the handler is served, everyone whose
// budget ran out while they waited gets a 504, everything past MaxInflight
// and everything after admission closed is a 503, and Drain reports clean.
// The lane can only fill under a budget above it: the server steals, so
// its program lane is one default ring, and the budget is sized from it.
// Were the lane deeper, the backlog would never settle above it below the
// budget, and the test would fail rather than pass vacuously.
func TestDrainWithCallersBlockedOnTheRole(t *testing.T) {
	lane := spsc.DefaultCapacity
	budget, timeout := lane+150, 100*time.Millisecond
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		Delegates:      1,
		MaxInflight:    budget,
		EpochInterval:  time.Hour, // a rotation would take the role and wait in its barrier instead
		RequestTimeout: timeout,
		Handler: func(sess *Session, r *http.Request) (int, string) {
			<-gate
			return http.StatusOK, "served"
		},
	})
	h := s.Handler()
	var (
		wg    sync.WaitGroup
		codes [600]atomic.Int64
	)
	launch := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, _ := get(t, h, "/", fmt.Sprintf("key-%d", i%7), nil)
				codes[code].Add(1)
			}(i)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for end := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	backlog := func() (sum int64) {
		for _, d := range s.rt.QueueDepths(nil) {
			sum += int64(d)
		}
		return sum
	}

	launch(budget)
	waitFor("the budget to fill", func() bool { return s.inflight.Load() == int64(budget) })
	// The delegate's backlog stops growing past its program lane while
	// admitted callers are still undelivered: the role is held by a caller
	// parked in the blocking push.
	var settled int64
	since := time.Now()
	waitFor("the lane to fill", func() bool {
		if b := backlog(); b != settled {
			settled, since = b, time.Now()
		}
		return settled > int64(lane) && time.Since(since) > 20*time.Millisecond
	})
	if settled >= int64(budget) {
		t.Fatalf("backlog %d: every admitted request was delegated, nobody is waiting for the role", settled)
	}
	launch(50) // past the budget
	waitFor("the over-capacity rejects", func() bool { return codes[http.StatusServiceUnavailable].Load() == 50 })

	admittedBy := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain() }()
	waitFor("admission to close", func() bool { return s.inflight.Load()&drainingBit != 0 })
	launch(5) // after admission closed
	waitFor("the draining rejects", func() bool { return codes[http.StatusServiceUnavailable].Load() == 55 })

	time.Sleep(time.Until(admittedBy.Add(timeout + 10*time.Millisecond))) // every waiter's budget is gone
	close(gate)
	select {
	case err := <-drained:
		if err != nil {
			t.Errorf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain never returned")
	}
	wg.Wait()
	ok, expired := codes[http.StatusOK].Load(), codes[http.StatusGatewayTimeout].Load()
	if ok < 1 || ok+expired != int64(budget) {
		t.Errorf("admitted %d: %d served + %d expired, want all of them and at least the one in the handler", budget, ok, expired)
	}
	if got := s.metrics.admissionRejects.Load(); got != 55 {
		t.Errorf("admission rejects = %d, want 55", got)
	}
}

// TestKillMidDeliverKeepsAckedBound kills a durable server while callers
// are in, and queued for, the role, with rotations running: under
// fsync=always every acknowledged request is durable, so a successor on the
// same storage continues every key strictly above its last acknowledged
// sequence number — the same bound the quiescent-point kill tests hold.
func TestKillMidDeliverKeepsAckedBound(t *testing.T) {
	fs := durable.NewMemFS()
	cfg := durableCfg(fs, durable.FsyncAlways)
	cfg.EpochInterval = 2 * time.Millisecond
	s1 := newTestServer(t, cfg)
	h1 := s1.Handler()
	keys := []string{"a", "b", "c", "d"}
	var (
		mu    sync.Mutex
		acked = map[string]int{}
		stop  atomic.Bool
	)
	for c := 0; c < 8; c++ {
		go func(c int) { // never joined: a request in flight at the kill parks forever
			for i := 0; !stop.Load(); i++ {
				key := keys[(c+i)%len(keys)]
				w := httptest.NewRecorder()
				r := httptest.NewRequest("GET", "/bump", nil)
				r.Header.Set("X-Session-Key", key)
				h1.ServeHTTP(w, r)
				if seq, err := strconv.Atoi(w.Body.String()); w.Code == http.StatusOK && err == nil {
					mu.Lock()
					acked[key] = max(acked[key], seq)
					mu.Unlock()
				}
			}
		}(c)
	}
	time.Sleep(30 * time.Millisecond)
	s1.kill()
	stop.Store(true)
	// The abandoned delegates finish what was already delegated (and those
	// callers are acknowledged); after that nothing reaches storage.
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var sum uint64
		for _, d := range s1.rt.QueueDepths(nil) {
			sum += d
		}
		if sum == 0 {
			break
		}
		if time.Now().After(end) {
			t.Fatal("abandoned delegates never went quiet")
		}
	}

	s2 := newTestServer(t, durableCfg(fs, durable.FsyncAlways))
	defer s2.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(acked) != len(keys) {
		t.Fatalf("only %d of %d keys acknowledged before the kill", len(acked), len(keys))
	}
	for key, seq := range acked {
		if next, _ := strconv.Atoi(bump(t, s2.Handler(), key)); next <= seq {
			t.Errorf("key %s: successor issued %d, but %d was acknowledged before the kill", key, next, seq)
		}
	}
}
