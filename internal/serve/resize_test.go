package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Elastic serving-tier tests: the manual /admin/resize endpoint, the
// rotation-driven autoscaler scaling up under a burst and back down when
// it passes, and the acceptance invariant — zero failed or reordered
// requests while the pool moves under live traffic.

// waitActive polls the runtime's active-delegate count until it reaches
// want or the deadline passes.
func waitActive(t *testing.T, s *Server, want int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if s.rt.ActiveDelegates() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("ActiveDelegates = %d, want %d within %v", s.rt.ActiveDelegates(), want, deadline)
}

func postResize(h http.Handler, target string) (int, string) {
	r := httptest.NewRequest("POST", "/admin/resize?n="+target, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.String()
}

func TestManualResizeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{
		EpochInterval: 5 * time.Millisecond,
		Delegates:     2,
		MaxDelegates:  4,
	})
	defer s.Drain()
	h := s.Handler()

	if code, _ := postResize(h, "4"); code != http.StatusAccepted {
		t.Fatalf("resize to 4: status %d, want 202", code)
	}
	waitActive(t, s, 4, 2*time.Second)

	// Traffic must keep its per-key order across the shrink back down.
	if code, _ := postResize(h, "1"); code != http.StatusAccepted {
		t.Fatalf("resize to 1: status %d, want 202", code)
	}
	last := 0
	for i := 0; i < 50; i++ {
		code, body := get(t, h, "/bump", "resize-key", nil)
		if code != http.StatusOK {
			t.Fatalf("request %d during shrink: status %d body %q", i, code, body)
		}
		seq := 0
		fmt.Sscanf(body, "%d", &seq)
		if seq != last+1 {
			t.Fatalf("request %d: sequence went %d -> %d across resize", i, last, seq)
		}
		last = seq
		time.Sleep(time.Millisecond)
	}
	waitActive(t, s, 1, 2*time.Second)

	// The exposition must track the pool and count the resizes.
	_, body := get(t, h, "/metrics", "m", nil)
	if !strings.Contains(body, "ss_delegates 1") {
		t.Error("metrics missing ss_delegates 1 after shrink")
	}
	if !strings.Contains(body, "ss_resize_total 2") {
		t.Error("metrics missing ss_resize_total 2 after two manual resizes")
	}
}

func TestResizeEndpointValidation(t *testing.T) {
	s := newTestServer(t, Config{
		EpochInterval: 50 * time.Millisecond,
		Delegates:     2,
		MaxDelegates:  4,
	})
	defer s.Drain()
	h := s.Handler()

	r := httptest.NewRequest("GET", "/admin/resize?n=3", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET resize: status %d, want 405", w.Code)
	}
	if code, _ := postResize(h, "0"); code != http.StatusUnprocessableEntity {
		t.Errorf("resize to 0: status %d, want 422", code)
	}
	if code, _ := postResize(h, "9"); code != http.StatusUnprocessableEntity {
		t.Errorf("resize beyond capacity: status %d, want 422", code)
	}
	if code, _ := postResize(h, "x"); code != http.StatusBadRequest {
		t.Errorf("non-integer target: status %d, want 400", code)
	}
}

func TestResizeEndpointFixedPool(t *testing.T) {
	s := newTestServer(t, Config{EpochInterval: 50 * time.Millisecond, Delegates: 2})
	defer s.Drain()
	if code, body := postResize(s.Handler(), "3"); code != http.StatusConflict {
		t.Errorf("fixed-pool resize: status %d body %q, want 409", code, body)
	}
}

// TestAutoscaleStep drives the decision function alone — no server, no
// clock: the band's two edges, the cooldown, the floor and the ceiling.
// Alpha is 0.5, so from a resting EWMA one sample moves it halfway.
func TestAutoscaleStep(t *testing.T) {
	const min, max, cooldownLen = 1, 4, 3
	for _, c := range []struct {
		name                     string
		ewma, occ                float64
		cooldown, active         int
		wantEWMA                 float64
		wantCooldown, wantTarget int
	}{
		{"band-high steps up", 2, 4, 0, 2, 3, cooldownLen, 3},
		{"the band's low edge itself holds", 1, 0, 0, 2, 0.5, 0, 2},
		{"below the band steps down", 0.5, 0, 0, 2, 0.25, cooldownLen, 1},
		{"inside the band holds", 1, 1.5, 0, 2, 1.25, 0, 2},
		{"cooldown only counts down, EWMA still steps", 2, 6, 2, 2, 4, 1, 2},
		{"last cooldown rotation decides nothing", 2, 6, 1, 2, 4, 0, 2},
		{"ceiling holds under load", 4, 8, 0, max, 6, 0, max},
		{"floor holds when idle", 0, 0, 0, min, 0, 0, min},
	} {
		ewma, cooldown, target := autoscaleStep(c.ewma, c.occ, c.cooldown, c.active, min, max, cooldownLen)
		if ewma != c.wantEWMA || cooldown != c.wantCooldown || target != c.wantTarget {
			t.Errorf("%s: autoscaleStep(ewma %v, occ %v, cooldown %d, active %d) = (%v, %d, %d), want (%v, %d, %d)",
				c.name, c.ewma, c.occ, c.cooldown, c.active, ewma, cooldown, target,
				c.wantEWMA, c.wantCooldown, c.wantTarget)
		}
	}
}

// TestAutoscaleUpAndDown is the acceptance drill: phase-shifted load
// (burst, then quiet) against an autoscaled pool. The burst's backlog must
// scale the pool up; the quiet phase must scale it back to the floor; and
// every request across both phases must succeed with per-key sequences
// intact.
func TestAutoscaleUpAndDown(t *testing.T) {
	s := newTestServer(t, Config{
		EpochInterval: 5 * time.Millisecond,
		Delegates:     1,
		MaxDelegates:  4,
		Autoscale:     true,
		Handler: func(sess *Session, r *http.Request) (int, string) {
			time.Sleep(2 * time.Millisecond) // slow enough to queue under the burst
			return http.StatusOK, fmt.Sprintf("%d", sess.Seq)
		},
	})
	defer s.Drain()
	h := s.Handler()

	// Burst phase: many concurrent keys pile more backlog than one
	// delegate drains between rotations.
	const clients = 12
	const perClient = 60
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("burst-%d", c)
			last := 0
			for i := 0; i < perClient; i++ {
				code, body := get(t, h, "/work", key, nil)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("key %s: status %d body %q", key, code, body)
					return
				}
				seq := 0
				fmt.Sscanf(body, "%d", &seq)
				if seq != last+1 {
					errs <- fmt.Sprintf("key %s: sequence %d -> %d", key, last, seq)
					return
				}
				last = seq
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	scaledTo := s.rt.ActiveDelegates()
	st := s.Stats()
	if st.Resizes == 0 {
		t.Fatalf("burst phase applied no resizes (active %d)", scaledTo)
	}
	if scaledTo < 2 {
		// The burst has ended, so the pool may already be shrinking; the
		// resize counter above proves scaling happened. Log for context.
		t.Logf("pool already shrinking at burst end (active %d, %d resizes)", scaledTo, st.Resizes)
	}

	// Quiet phase: the occupancy EWMA decays to zero and the pool must
	// walk back down to the floor.
	waitActive(t, s, 1, 3*time.Second)
	if down := s.Stats(); down.Resizes <= st.Resizes && scaledTo > 1 {
		t.Errorf("quiet phase applied no further resizes (total %d)", down.Resizes)
	}
}
