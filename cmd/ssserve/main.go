// Command ssserve runs the serialization-sets serving tier: an HTTP
// frontend that hashes each request's session key to a serialization set
// and delegates its handler there, so concurrent connections get per-key
// causal order, skewed keys are rebalanced by whole-set stealing, and a
// panicking request is contained — its key fails fast for the rest of the
// epoch while every other key keeps serving.
//
// The built-in handler is a per-session counter/KV API, enough to
// exercise and demonstrate the ordering and containment properties:
//
//	GET  /bump?key=K            increment K's sequence, return "seq=N"
//	GET  /get?key=K&k=NAME      read NAME from K's KV, return its value
//	POST /set?key=K&k=NAME&v=V  write NAME=V into K's KV
//	any  + header X-Chaos-Panic: 1   the handler panics (chaos injection)
//	GET  /metrics               Prometheus text exposition
//	GET  /healthz               200, or 503 while draining
//
// The session key comes from the X-Session-Key header or the key query
// parameter. On SIGTERM/SIGINT the server drains: the listener stops
// accepting, admitted requests are served to completion, the final epoch
// barrier runs, and stragglers past the drain deadline (5s) are reported
// with the runtime's scheduler dump.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
)

func main() {
	// Flags bind into the configuration they fill. What has no flag keeps
	// serve's default.
	cfg := serve.Config{Handler: handle, Fsync: durable.FsyncRotation, Logf: log.Printf}
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&cfg.Delegates, "delegates", 0, "delegate contexts, fixed for the server's life (0 = GOMAXPROCS-1)")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 1024, "admission budget (503 above it)")
	flag.Float64Var(&cfg.Rate, "rate", 0, "per-key token-bucket rate, requests/sec, bucket depth 10 (0 = off)")
	flag.DurationVar(&cfg.EpochInterval, "epoch-interval", 100*time.Millisecond, "isolation-epoch rotation period")

	// Durable sessions.
	stateDir := flag.String("state-dir", "", "session state directory: snapshots + journal, recovered at boot (empty = sessions die with the process)")
	flag.Func("fsync", "journal fsync `policy`: off (buffered), rotation (sync per epoch, <=1 epoch acked loss; the default), always (sync per request, zero acked loss)",
		func(s string) (err error) { cfg.Fsync, err = durable.ParseFsync(s); return err })
	journal := flag.Bool("journal", true, "intra-epoch journal (false = snapshot-only durability, <=1 epoch loss regardless of -fsync)")

	// Deadlines and the slow-key watchdog.
	flag.DurationVar(&cfg.RequestTimeout, "request-timeout", 0, "per-request budget, fixed at admission (0 = no deadlines)")
	flag.DurationVar(&cfg.SlowThreshold, "slow-threshold", 0, "slow-key watchdog service-time threshold (0 = off)")
	flag.Parse()

	if *stateDir != "" {
		fs, err := durable.NewDirFS(*stateDir)
		if err != nil {
			log.Fatalf("ssserve: %v", err)
		}
		cfg.StateFS = fs
		cfg.NoJournal = !*journal
	}
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *stateDir != "" {
		sessions, truncated := srv.Recovered()
		log.Printf("ssserve: recovered %d sessions from %s (fsync=%s, %d journal records truncated)",
			sessions, *stateDir, cfg.Fsync, truncated)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("ssserve: listening on %s", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("ssserve: listener failed: %v", err)
	case s := <-sig:
		log.Printf("ssserve: %v: draining", s)
	}

	// Drain order: stop accepting and wait for inflight HTTP handlers
	// first (they need the serving tier alive to answer), then drain the
	// tier itself — final barrier, snapshot, terminate.
	ctx, cancel := context.WithTimeout(context.Background(), serve.DrainTimeout+time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("ssserve: listener shutdown: %v", err)
	}
	if err := srv.Drain(); err != nil {
		log.Printf("ssserve: %v", err)
		os.Exit(1)
	}
	log.Printf("ssserve: drained cleanly")
}

// handle is the per-session request handler, executed on a delegate
// context with the session's set serializing it against every other
// request for the same key.
func handle(s *serve.Session, r *http.Request) (int, string) {
	if r.Header.Get("X-Chaos-Panic") == "1" {
		panic(fmt.Sprintf("chaos: injected panic for key %q (seq %d)", s.Key, s.Seq))
	}
	// Only /get and /set read the query: /bump, the load generator's
	// default, parses none.
	switch r.URL.Path {
	case "/bump", "/":
		return http.StatusOK, fmt.Sprintf("key=%s seq=%d\n", s.Key, s.Seq)
	case "/get":
		v, ok := s.Data[r.URL.Query().Get("k")]
		if !ok {
			return http.StatusNotFound, "not found\n"
		}
		return http.StatusOK, v + "\n"
	case "/set":
		q := r.URL.Query()
		s.Data[q.Get("k")] = q.Get("v")
		return http.StatusOK, "ok\n"
	default:
		return http.StatusNotFound, "unknown path\n"
	}
}
