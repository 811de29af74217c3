package serve

import (
	"fmt"
	"io"
	"net/http"
	"time"

	prometheus "repro"
)

// Handler returns the server's HTTP surface: every path serves requests
// through the session-affinity request path except /metrics (Prometheus text
// exposition) and /healthz (503 while draining, 200 otherwise).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/", s)
	return mux
}

// handleHealthz reports readiness plus the degradation detail an
// orchestrator needs to distinguish "draining" (remove from rotation,
// instance is going away) from "degraded" (keep routing, but some keys or
// backends are impaired): the currently-poisoned key count, the
// gated-backend count, and the watchdog-degraded key count, all in the
// body of both the 200 and the 503.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.inflight.Load()&drainingBit != 0 {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	gated := 0
	if sp, ok := s.cfg.Backend.(statesProvider); ok {
		for _, bs := range sp.States() {
			if bs.Gated {
				gated++
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, "%s\npoisoned_keys %d\ngated_backends %d\ndegraded_keys %d\n",
		state, s.poisoned.Load(), gated, s.degraded.Load())
	if s.store != nil {
		// Durability detail: what the last startup rebuilt (and had to
		// discard), so an operator — or the crash-restart harness — can
		// tell a clean recovery from a truncated one without scraping.
		fmt.Fprintf(w, "recovered_sessions %d\njournal_truncated_records %d\n",
			s.recovered.sessions, s.recovered.truncatedRecords)
	}
}

// admit reserves one slot of the inflight budget, or says why not. The
// draining bit and the count share one word and a refusal writes nothing:
// the count holds admitted requests only, and none joins it once Drain
// has set the bit.
func (s *Server) admit() (refusal string) {
	for {
		switch v := s.inflight.Load(); {
		case v&drainingBit != 0:
			return "draining"
		case v >= int64(s.cfg.MaxInflight):
			return "over capacity"
		case s.inflight.CompareAndSwap(v, v+1):
			return ""
		}
	}
}

// release returns an admitted request's slot once it has been answered;
// the one that empties a draining server wakes Drain.
func (s *Server) release() {
	if s.inflight.Add(-1) == drainingBit {
		close(s.idle)
	}
}

// ServeHTTP is the request path: the admission gate (a cheap reject that
// never touches the role), then the caller takes the role to delegate its
// own job and waits for the answer. Off the role runs only the inflight
// budget, which needs no per-key state, so overload is repelled before
// anything else is paid. Every per-key gate runs at delivery, under the
// role: expired budget, then the poisoned and degraded marks and the token
// bucket on the key's Session.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if refusal := s.admit(); refusal != "" {
		s.metrics.admissionRejects.Add(1)
		http.Error(w, refusal, http.StatusServiceUnavailable)
		return
	}
	defer s.release()

	key := s.cfg.KeyFunc(r)
	set := prometheus.StringSet(key)
	j := s.jobs.Get().(*job)
	j.key, j.set, j.r, j.start = key, set, r, time.Now()
	if s.cfg.RequestTimeout > 0 {
		// The request's budget is fixed here, at admission: every queue it
		// waits in, every backend attempt, and every retry backoff spends
		// from this one allowance.
		j.deadline = j.start.Add(s.cfg.RequestTimeout)
	}
	s.enter(j)
	<-j.done

	// The signal is consumed: the answer is read out and the job goes back
	// to the pool before the response is written.
	s.metrics.observe(set, time.Since(j.start))
	outcome, status, body, fault := j.outcome, j.status, j.body, j.fault
	s.recycle(j)
	switch outcome {
	case outcomeServed:
		s.metrics.served.Add(1)
		w.WriteHeader(status)
		io.WriteString(w, body)
	case outcomeFaulted, outcomePoisoned:
		// This request's own handler panicked, or an earlier request's did
		// this epoch: either way the 500 carries that fault.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusInternalServerError)
		if outcome == outcomeFaulted {
			fmt.Fprintf(w, "request for key %q panicked; key poisoned for the current epoch\n", key)
		} else {
			fmt.Fprintf(w, "key %q is poisoned for the current epoch; request dropped\n", key)
		}
		fmt.Fprintf(w, "fault: %v\n", fault)
	case outcomeExpired:
		// The request's budget ran out before a backend could answer — at
		// delivery, at the queue front behind slower epoch-mates, or inside
		// a deadline-honoring backend.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprintf(w, "request for key %q exceeded its %v budget\n", key, s.cfg.RequestTimeout)
	case outcomeShed:
		// The slow-key watchdog degraded this key: shedding beats queueing
		// a request behind work that would blow its budget anyway.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "key %q degraded: persistently slow; shed until the next epoch rotation\n", key)
	default: // outcomeLimited
		s.metrics.rateRejects.Add(1)
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
	}
}
