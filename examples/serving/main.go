// Serving: serialization sets as a session-affinity request router — the
// public form of the serving tier (internal/serve, cmd/ssserve) driven
// in-process, no sockets needed.
//
// Every request carries a session key; the key hashes to a serialization
// set; the handler for the request is delegated to that set. The model
// then gives the serving property for free: requests for one key execute
// in arrival order on one delegate at a time — per-key causal order with
// no per-session locks — while requests for different keys run
// concurrently across the delegate pool, rebalanced by whole-set stealing
// when the key distribution skews.
//
// The program runs three phases and prints what the runtime observed:
//
//  1. Skewed load: concurrent clients hammer two hot keys and a spread of
//     cold ones; each response returns the session's sequence number and
//     every client asserts it only ever sees its key's sequence increase.
//
//  2. Chaos: one request for the key "unlucky" panics inside its handler.
//     The panic is contained — that request and the key's follow-ups this
//     epoch fail fast with the fault attached, siblings keep serving, and
//     the next epoch rotation heals the key.
//
//  3. Graceful drain: the server stops admitting, serves everything
//     already accepted, runs the final epoch barrier, and terminates.
//
// Run it:
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

func request(h http.Handler, key string, chaos bool) (int, string) {
	r := httptest.NewRequest("GET", "/bump", nil)
	r.Header.Set("X-Session-Key", key)
	if chaos {
		r.Header.Set("X-Chaos-Panic", "1")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.String()
}

func main() {
	srv, err := serve.New(serve.Config{
		Delegates:     4,
		EpochInterval: 10 * time.Millisecond,
		Handler: func(s *serve.Session, r *http.Request) (int, string) {
			if r.Header.Get("X-Chaos-Panic") == "1" {
				panic(fmt.Sprintf("chaos: handler fault for key %q", s.Key))
			}
			return http.StatusOK, fmt.Sprintf("%d", s.Seq)
		},
	})
	if err != nil {
		panic(err)
	}
	h := srv.Handler()

	// Phase 1: skewed concurrent load with per-key ordering asserted.
	var (
		wg        sync.WaitGroup
		served    atomic.Uint64
		disorders atomic.Uint64
	)
	client := func(key string, n int) {
		defer wg.Done()
		last := -1
		for i := 0; i < n; i++ {
			code, body := request(h, key, false)
			if code != http.StatusOK {
				continue
			}
			served.Add(1)
			seq := 0
			fmt.Sscanf(body, "%d", &seq)
			if seq <= last {
				disorders.Add(1)
			}
			last = seq
		}
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go client(fmt.Sprintf("hot-%d", i%2), 200) // 6 clients on 2 hot keys
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go client(fmt.Sprintf("cold-%d", i), 50)
	}
	wg.Wait()
	fmt.Printf("skewed load: %d requests served, %d ordering violations\n",
		served.Load(), disorders.Load())

	// Phase 2: chaos on one key; siblings unaffected; the key heals.
	code, _ := request(h, "unlucky", true)
	fmt.Printf("chaos request: status %d (fault contained, key poisoned)\n", code)
	code, body := request(h, "unlucky", false)
	fmt.Printf("follow-up on poisoned key: status %d, detail attached: %v\n",
		code, len(body) > 0 && code == http.StatusInternalServerError)
	if code, _ := request(h, "hot-0", false); code == http.StatusOK {
		fmt.Println("sibling key: still serving")
	}
	healed := false
	for i := 0; i < 100 && !healed; i++ {
		time.Sleep(10 * time.Millisecond)
		if code, _ := request(h, "unlucky", false); code == http.StatusOK {
			healed = true
		}
	}
	fmt.Printf("poisoned key healed by epoch rotation: %v\n", healed)

	// Phase 3: graceful drain, then the runtime's own account of the run.
	if err := srv.Drain(); err != nil {
		fmt.Printf("drain: %v\n", err)
		return
	}
	st := srv.Stats()
	fmt.Printf("drained cleanly: epochs=%d delegations=%d steals=%d\n",
		st.Epochs, st.Delegations, st.Steals)
}
