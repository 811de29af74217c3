package loadgen

// Crash-restart recovery harness: boots a REAL ssserve process over TCP,
// drives live traffic at it, SIGKILLs it mid-stream, restarts it against
// the same state directory, and asserts the durability contract from the
// only vantage point that matters — the client's:
//
//   - Per-key sequences stay monotonic across the restart boundary
//     relative to the durable floor: a restarted server never re-issues a
//     sequence at or below what the fsync policy promised to keep.
//   - The loss bound holds: fsync=always means every acknowledged
//     response survives the kill; fsync=rotation means everything
//     acknowledged more than a rotation margin before the kill survives
//     (at most ~one epoch of acked tail may be lost); fsync=off promises
//     nothing for a kill (and the harness asserts nothing).
//   - The restarted server reports its recovery on /metrics and then
//     sustains a full second load phase with the ordinary Check bounds,
//     finishing with a clean SIGTERM drain (exit status 0).
//
// SIGKILL — not SIGTERM — is the point: the process gets no chance to
// flush, drain, or snapshot. What survives is exactly what the journal's
// fsync policy already pushed through the user-space boundary.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"syscall"
	"time"
)

// RecoveryProfile parameterizes one crash-restart drill.
type RecoveryProfile struct {
	ServerBin string // path to the ssserve binary (required)
	StateDir  string // state directory shared across the restart (required)

	Fsync         string        // journal fsync policy: off, rotation, always (default rotation)
	EpochInterval time.Duration // ssserve -epoch-interval; also sets the rotation loss margin (default 25ms)
	KillAfter     time.Duration // how long phase 1 traffic runs before SIGKILL (default 1s)

	// Phase1 and Phase2 shape the before/after load. BaseURL and TrackAcks
	// are managed by the harness; zero-value profiles take Run's defaults.
	Phase1, Phase2 Profile

	ServerArgs []string // extra ssserve flags for both boots

	Logf func(format string, args ...any) // progress narration (default discard)
}

// RecoveryResult is what the drill observed.
type RecoveryResult struct {
	Phase1, Phase2    *Result
	RecoveredSessions int // from the restarted server's /metrics
	TruncatedRecords  int // torn journal frames the restart truncated
	ProbedKeys        int // keys floor-checked across the boundary
	Violations        []string
}

func (p *RecoveryProfile) withDefaults() error {
	if p.ServerBin == "" || p.StateDir == "" {
		return fmt.Errorf("loadgen: RecoveryProfile.ServerBin and StateDir are required")
	}
	switch p.Fsync {
	case "":
		p.Fsync = "rotation"
	case "off", "rotation", "always":
	default:
		return fmt.Errorf("loadgen: RecoveryProfile.Fsync %q: want off, rotation, or always", p.Fsync)
	}
	if p.EpochInterval <= 0 {
		p.EpochInterval = 25 * time.Millisecond
	}
	if p.KillAfter <= 0 {
		p.KillAfter = time.Second
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
	return nil
}

// RunRecovery executes the drill. The error return covers harness
// failures (binary missing, server never became ready); contract
// violations land in RecoveryResult.Violations.
func RunRecovery(p RecoveryProfile) (*RecoveryResult, error) {
	if err := p.withDefaults(); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	base := "http://" + addr
	res := &RecoveryResult{}

	// --- boot 1 ---
	p.Logf("recovery: boot 1 on %s (fsync=%s)", addr, p.Fsync)
	srv1, err := p.startServer(addr)
	if err != nil {
		return nil, err
	}
	if err := waitReady(base, 10*time.Second); err != nil {
		srv1.kill()
		return nil, fmt.Errorf("boot 1: %w\n%s", err, srv1.output())
	}

	// --- phase 1: load, then SIGKILL mid-traffic ---
	phase1 := p.Phase1
	phase1.BaseURL = base
	phase1.TrackAcks = true
	if phase1.Requests <= 0 {
		phase1.Requests = 1 << 20 // effectively unbounded; the kill ends the phase
	}
	if phase1.Timeout <= 0 {
		phase1.Timeout = 2 * time.Second
	}
	stop := make(chan struct{})
	phase1.Stop = stop
	phase1Done := make(chan struct{})
	go func() {
		defer close(phase1Done)
		res.Phase1, _ = Run(phase1)
	}()
	time.Sleep(p.KillAfter)
	killTime := time.Now()
	p.Logf("recovery: SIGKILL after %v of traffic", p.KillAfter)
	srv1.kill()
	close(stop)
	<-phase1Done
	if res.Phase1 == nil || res.Phase1.Healthy == 0 {
		return nil, fmt.Errorf("phase 1 produced no healthy responses before the kill\n%s", srv1.output())
	}
	p.Logf("recovery: phase 1 acked %d responses across %d keys",
		res.Phase1.Healthy, len(res.Phase1.Acks))

	// --- boot 2: same state dir ---
	srv2, err := p.startServer(addr)
	if err != nil {
		return nil, err
	}
	defer srv2.kill() // no-op after a clean stop
	if err := waitReady(base, 10*time.Second); err != nil {
		return nil, fmt.Errorf("boot 2 (recovery): %w\n%s", err, srv2.output())
	}
	m, err := Scrape(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("boot 2 metrics: %w", err)
	}
	sessions, ok := m.Value("ss_recovered_sessions")
	if !ok {
		return nil, fmt.Errorf("boot 2 metrics carry no ss_recovered_sessions (durability not enabled?)")
	}
	truncated, _ := m.Value("ss_journal_truncated_records")
	res.RecoveredSessions, res.TruncatedRecords = int(sessions), int(truncated)
	p.Logf("recovery: boot 2 recovered %d sessions, truncated %d journal records",
		res.RecoveredSessions, res.TruncatedRecords)
	if res.RecoveredSessions == 0 && p.Fsync != "off" {
		res.Violations = append(res.Violations,
			fmt.Sprintf("restart recovered 0 sessions despite %d acked responses under fsync=%s",
				res.Phase1.Healthy, p.Fsync))
	}

	// --- boundary probes: one request per key, checked against the floor ---
	//
	// The durable floor per key is the highest sequence the fsync policy
	// promised to keep: every ack for always; acks older than two epochs
	// before the kill for rotation (one epoch is the sync cadence, the
	// second absorbs the kill racing an in-progress rotation); nothing for
	// off. The probe's sequence must come back strictly above the floor —
	// at or below it would mean the server re-issued an acknowledged,
	// durable sequence number.
	var cutoff time.Time
	switch p.Fsync {
	case "rotation":
		cutoff = killTime.Add(-2 * p.EpochInterval)
	case "off":
		cutoff = time.Time{} // floor stays 0: no probe can violate it
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for key := range res.Phase1.Acks {
		var floor uint64
		if p.Fsync == "always" {
			floor = res.Phase1.MaxAckedBefore(key, time.Time{})
		} else if p.Fsync == "rotation" {
			floor = res.Phase1.MaxAckedBefore(key, cutoff)
		}
		status, body, err := doGet(client, base+"/bump", key)
		if err != nil || status != http.StatusOK {
			res.Violations = append(res.Violations,
				fmt.Sprintf("boundary probe for key %s failed: status %d err %v", key, status, err))
			continue
		}
		res.ProbedKeys++
		seq, ok := parseSeq(body)
		if !ok {
			res.Violations = append(res.Violations,
				fmt.Sprintf("boundary probe for key %s: unparseable body %q", key, body))
			continue
		}
		if seq <= floor {
			res.Violations = append(res.Violations,
				fmt.Sprintf("key %s: post-restart seq %d <= durable floor %d (fsync=%s lost acknowledged state)",
					key, seq, floor, p.Fsync))
		}
	}
	p.Logf("recovery: %d boundary probes checked", res.ProbedKeys)

	// --- phase 2: the restarted server must serve a full run cleanly ---
	phase2 := p.Phase2
	phase2.BaseURL = base
	res.Phase2, err = Run(phase2)
	if err != nil {
		return nil, fmt.Errorf("phase 2: %w", err)
	}
	res.Violations = append(res.Violations, prefixAll("phase 2: ", res.Phase2.Check(phase2))...)

	// --- clean drain: SIGTERM, expect exit 0 ---
	if err := srv2.stop(15 * time.Second); err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("post-recovery drain: %v\n%s", err, srv2.output()))
	} else {
		p.Logf("recovery: drained cleanly")
	}
	return res, nil
}

func prefixAll(prefix string, vs []string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = prefix + v
	}
	return out
}

// serverProc is one ssserve process under harness control.
type serverProc struct {
	cmd *exec.Cmd
	out *bytes.Buffer
}

func (p *RecoveryProfile) startServer(addr string) (*serverProc, error) {
	args := []string{
		"-addr", addr,
		"-state-dir", p.StateDir,
		"-fsync", p.Fsync,
		"-epoch-interval", p.EpochInterval.String(),
	}
	args = append(args, p.ServerArgs...)
	var out bytes.Buffer
	cmd := exec.Command(p.ServerBin, args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("loadgen: start %s: %w", p.ServerBin, err)
	}
	return &serverProc{cmd: cmd, out: &out}, nil
}

// kill SIGKILLs the process and reaps it. Safe to call repeatedly.
func (s *serverProc) kill() {
	if s.cmd.Process != nil {
		s.cmd.Process.Kill()
	}
	s.cmd.Wait()
}

// stop SIGTERMs the process and requires a clean exit within timeout —
// the graceful-drain contract.
func (s *serverProc) stop(timeout time.Duration) error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("exit status: %w", err)
		}
		return nil
	case <-time.After(timeout):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("did not drain within %v", timeout)
	}
}

// output returns what the process wrote, for failure diagnostics. Call
// only after the process has been reaped (kill or stop).
func (s *serverProc) output() string { return s.out.String() }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port, nil
}

// waitReady polls /healthz until the server answers 200.
func waitReady(base string, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: server not ready within %v (last: %v)", timeout, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
