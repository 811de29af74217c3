// Command ssload is the adversarial load generator for ssserve: a
// deterministic skewed client fleet (internal/loadgen) that hammers a
// live server's /bump counter API and then asserts on the answers —
// per-key causal order across the whole fleet, zero hung requests,
// a healthy-latency p99 bound, and an error budget. With -recovery it
// runs the crash-restart drill instead: it spawns its own ssserve on a
// state directory, SIGKILLs it mid-traffic, restarts it and asserts the
// fsync policy's acked-loss bound.
//
// Exit status: 0 when every enabled assertion held, 1 otherwise (with
// one line per violation on stderr). The run report always prints to
// stdout, pass or fail.
//
//	ssload -url http://127.0.0.1:8080 -n 5000 -workers 16 \
//	       -hot-fraction 0.9 -max-p99 500ms -max-error-rate 0.02
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8080", "target ssserve base URL")
		n           = flag.Int("n", 1000, "total requests")
		workers     = flag.Int("workers", 8, "concurrent client workers")
		hotKeys     = flag.Int("hot-keys", 2, "hot key count")
		coldKeys    = flag.Int("cold-keys", 64, "cold key count")
		hotFraction = flag.Float64("hot-fraction", 0.9, "fraction of requests on hot keys")
		seed        = flag.Uint64("seed", 1, "deterministic request-stream seed")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request client budget (hang detector)")
		maxP99      = flag.Duration("max-p99", 0, "healthy-response p99 bound (0 = don't assert)")
		maxErrRate  = flag.Float64("max-error-rate", 0, "max non-shed 5xx fraction (0 = don't assert)")

		// Crash-recovery drill (-recovery spawns its own ssserve; -url is ignored).
		recovery  = flag.Bool("recovery", false, "run the crash-restart recovery drill instead of a plain load run")
		serverBin = flag.String("server-bin", "", "recovery: path to the ssserve binary")
		stateDir  = flag.String("state-dir", "", "recovery: state directory shared across the restart")
		fsync     = flag.String("fsync", "rotation", "recovery: journal fsync policy under test (off, rotation, always)")
		epoch     = flag.Duration("epoch", 25*time.Millisecond, "recovery: server epoch interval (sets the rotation loss margin)")
		killAfter = flag.Duration("kill-after", time.Second, "recovery: traffic duration before SIGKILL")
	)
	flag.Parse()

	if *recovery {
		runRecovery(recoveryOpts{
			serverBin: *serverBin, stateDir: *stateDir, fsync: *fsync,
			epoch: *epoch, killAfter: *killAfter,
			workers: *workers, requests: *n,
			hotKeys: *hotKeys, coldKeys: *coldKeys, hotFraction: *hotFraction,
			seed: *seed, maxP99: *maxP99, maxErrRate: *maxErrRate,
		})
		return
	}

	p := loadgen.Profile{
		BaseURL:      *url,
		Workers:      *workers,
		Requests:     *n,
		HotKeys:      *hotKeys,
		ColdKeys:     *coldKeys,
		HotFraction:  *hotFraction,
		Seed:         *seed,
		Timeout:      *timeout,
		MaxP99:       *maxP99,
		MaxErrorRate: *maxErrRate,
	}
	res, err := loadgen.Run(p)
	if err != nil {
		log.Fatalf("ssload: %v", err)
	}
	fmt.Print(res)

	violations := res.Check(p)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "ssload: VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("ssload: all assertions held")
}

type recoveryOpts struct {
	serverBin, stateDir, fsync string
	epoch, killAfter           time.Duration
	workers, requests          int
	hotKeys, coldKeys          int
	hotFraction                float64
	seed                       uint64
	maxP99                     time.Duration
	maxErrRate                 float64
}

// runRecovery executes the crash-restart drill: spawn ssserve, load it,
// SIGKILL it mid-traffic, restart on the same state dir, assert the fsync
// policy's loss bound across the boundary, then a clean phase-2 run and a
// SIGTERM drain. Exits 0 only when every assertion held.
func runRecovery(o recoveryOpts) {
	phase2 := loadgen.Profile{
		Workers: o.workers, Requests: o.requests,
		HotKeys: o.hotKeys, ColdKeys: o.coldKeys, HotFraction: o.hotFraction,
		Seed: o.seed + 1, MaxP99: o.maxP99, MaxErrorRate: o.maxErrRate,
	}
	phase1 := phase2
	phase1.Seed = o.seed
	phase1.MaxP99, phase1.MaxErrorRate = 0, 0 // phase 1 ends in a SIGKILL; no bounds
	phase1.Requests = 0                       // unbounded — the kill ends it

	res, err := loadgen.RunRecovery(loadgen.RecoveryProfile{
		ServerBin:     o.serverBin,
		StateDir:      o.stateDir,
		Fsync:         o.fsync,
		EpochInterval: o.epoch,
		KillAfter:     o.killAfter,
		Phase1:        phase1,
		Phase2:        phase2,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatalf("ssload: recovery drill: %v", err)
	}
	fmt.Printf("phase 1 (killed):\n%s", res.Phase1)
	fmt.Printf("recovered_sessions %d  journal_truncated_records %d  probed_keys %d\n",
		res.RecoveredSessions, res.TruncatedRecords, res.ProbedKeys)
	fmt.Printf("phase 2 (recovered):\n%s", res.Phase2)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "ssload: VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("ssload: recovery drill passed (fsync=%s)\n", o.fsync)
}
