package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// serveHTTPWorkload is serve-http: the real cmd/ssserve binary behind a
// loopback socket, driven the way internal/loadgen drives it by default.
func serveHTTPWorkload() *workload {
	var bin string
	w := &workload{
		name: "serve-http",
		why:  "the ssserve binary over loopback, one connection, loadgen's default mix: what a user sees, and where serve and core are under a tenth of the time",
		// The slowest hundredth of loopback requests belongs to the host: when
		// a neighbour arrived, one run of 34 had a p99 of 1650 us against the
		// others' 240 and a p95 of 280 against 165, and the same p90 as they,
		// 133. The slowest tenth is the tail this workload can hold a bound on.
		tailQ: 0.90,
	}
	w.prepare = func(e *env) error {
		dir, err := filepath.Abs(e.dir)
		if err != nil {
			return err
		}
		bin = filepath.Join(dir, "ssserve")
		// Compiling is no part of any clock: it happens here, once.
		cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/ssserve")
		cmd.Dir = e.src
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("build cmd/ssserve: %v\n%s", err, out)
		}
		return nil
	}
	w.setup = func(e *env) (instance, error) { return newHTTPInstance(e, bin) }
	return w
}

// httpConns is how many keep-alive connections, each with one closed-loop
// caller, drive the server: one. The generator and ssserve share the host's
// few CPUs, and a request already passes through four threads (caller,
// connection goroutine, router, delegate). With a connection per CPU the p99
// was the scheduler's: 410-580 us from run to run on the same code, against
// 216-258 us with one request in flight.
const httpConns = 1

type httpInstance struct {
	e       *env
	cmd     *exec.Cmd
	addr    string
	ks      *keySpace
	wire    [][]byte // the request for each key, as bytes
	chk     *seqChecker
	conns   []*httpConn
	perConn int
	extra   map[string]float64

	srvCPU, genCPU time.Duration
	reqs           int64
	lat            []int64 // the connections' samples of one round, merged; reused
}

// httpConn is one keep-alive connection and its closed-loop caller.
type httpConn struct {
	rng   splitmix
	conn  net.Conn
	rd    *bufio.Reader
	body  []byte
	lat   []int64
	acks  []uint64
	spans *spanBuf
	n     int64
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func newHTTPInstance(e *env, bin string) (*httpInstance, error) {
	h := &httpInstance{e: e, perConn: e.pick(5_000, 500), extra: map[string]float64{}}
	// loadgen's default shape: 90% of requests on 2 hot keys, the rest
	// spread over 64 cold ones.
	h.ks = newKeySpace(2, 64, 0.9)
	for _, k := range h.ks.keys {
		h.wire = append(h.wire, []byte("GET /bump HTTP/1.1\r\nHost: bench\r\n"+sessionKeyHeader+": "+k+"\r\n\r\n"))
	}
	h.chk = newSeqChecker(httpConns, len(h.ks.keys))
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	h.addr = addr
	h.cmd = exec.Command(bin, "-addr", addr, "-delegates", strconv.Itoa(e.delegates()))
	h.cmd.Stderr = io.Discard
	start := time.Now()
	if err := h.cmd.Start(); err != nil {
		return nil, err
	}
	if err := h.waitHealthy(5 * time.Second); err != nil {
		h.stop()
		return nil, err
	}
	h.extra["http.boot_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	rng := splitmix(e.seed)
	for i := 0; i < httpConns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			h.stop()
			return nil, err
		}
		c := &httpConn{rng: splitmix(rng.next()), conn: conn, rd: bufio.NewReader(conn), body: make([]byte, 256),
			lat: make([]int64, 0, h.perConn), acks: make([]uint64, 0, h.perConn)}
		if e.rec != nil {
			c.spans = e.rec.buf()
		}
		h.conns = append(h.conns, c)
	}
	for i := 0; i < 2; i++ { // warm-up rounds, part of set-up
		if _, err := h.round(); err != nil {
			h.stop()
			return nil, err
		}
	}
	h.srvCPU, h.genCPU, h.reqs = 0, 0, 0
	return h, nil
}

// waitHealthy polls /healthz until the server answers 200.
func (h *httpInstance) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if status, _, err := h.get("/healthz"); err == nil && status == 200 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("ssserve did not become healthy")
}

// get makes one request on a connection of its own.
func (h *httpInstance) get(path string) (int, []byte, error) {
	conn, err := net.DialTimeout("tcp", h.addr, time.Second)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n", path); err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		return 0, nil, err
	}
	head, body, _ := bytes.Cut(raw, []byte("\r\n\r\n"))
	f := bytes.Fields(head)
	if len(f) < 2 {
		return 0, nil, errors.New("malformed response")
	}
	status, err := strconv.Atoi(string(f[1]))
	return status, body, err
}

// do sends the pre-rendered request for key and reads the response: the
// status line, Content-Length, and the counter body, nothing else.
func (c *httpConn) do(wire []byte, key string) (uint64, error) {
	if _, err := c.conn.Write(wire); err != nil {
		return 0, err
	}
	line, err := c.rd.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		return 0, fmt.Errorf("status line %q", bytes.TrimSpace(line))
	}
	length := -1
	for {
		if line, err = c.rd.ReadSlice('\n'); err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, err
			}
		}
	}
	if length < 0 || length > len(c.body) {
		return 0, fmt.Errorf("content length %d", length)
	}
	if _, err := io.ReadFull(c.rd, c.body[:length]); err != nil {
		return 0, err
	}
	seq, ok := parseCounterBody(c.body[:length], key)
	if !ok {
		return 0, fmt.Errorf("body %q", c.body[:length])
	}
	return seq, nil
}

func (h *httpInstance) round() (round, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(h.conns))
	srv0, err := procCPU(h.cmd.Process.Pid)
	if err != nil {
		return round{}, err
	}
	gen0 := selfCPU()
	start := time.Now()
	for ci, c := range h.conns {
		c.lat, c.acks = c.lat[:0], c.acks[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := h.e.rec
			for i := 0; i < h.perConn; i++ {
				k := h.ks.pick(&c.rng)
				var t0 int64
				if rec != nil {
					t0 = rec.now()
				}
				s := time.Now()
				seq, err := c.do(h.wire[k], h.ks.keys[k])
				if err != nil {
					errs[ci] = err
					return
				}
				c.lat = append(c.lat, int64(time.Since(s)))
				c.acks = append(c.acks, packAck(k, seq))
				if c.n++; rec != nil && c.n%traceEvery == 0 {
					c.spans.add("http.request", t0, rec.now(), 0, c.spans.id<<40|c.n)
				}
			}
		}()
	}
	wg.Wait()
	r := round{wall: time.Since(start), lat: h.lat[:0]}
	gen := selfCPU() - gen0
	srv1, err := procCPU(h.cmd.Process.Pid)
	if err != nil {
		return r, err
	}
	// The process under test is the server; the generator's CPU is kept
	// aside, for http.client_cpu_share.
	r.cpu = srv1 - srv0
	acks := make([][]uint64, len(h.conns))
	for ci, c := range h.conns {
		if errs[ci] != nil {
			// A transport or protocol error ends the connection's loop; what
			// it had not yet sent counts as failed.
			r.failed += int64(h.perConn - len(c.lat))
			h.e.logf("serve-http: connection %d: %v", ci, errs[ci])
		}
		r.lat = append(r.lat, c.lat...)
		acks[ci] = c.acks
	}
	h.lat = r.lat
	r.ops = int64(len(r.lat))
	h.srvCPU += r.cpu
	h.genCPU += gen
	h.reqs += r.ops
	if r.failed > 0 {
		return r, errors.Join(errs...)
	}
	return r, h.chk.check(acks)
}

// stop ends the child and waits for it. SIGTERM makes ssserve drain; it must
// then exit 0.
func (h *httpInstance) stop() (*os.ProcessState, error) {
	for _, c := range h.conns {
		c.conn.Close()
	}
	h.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	select {
	case err := <-done:
		return h.cmd.ProcessState, err
	case <-time.After(10 * time.Second):
		h.cmd.Process.Kill()
		<-done
		return h.cmd.ProcessState, errors.New("ssserve did not drain within 10s of SIGTERM")
	}
}

func (h *httpInstance) close() (closing, error) {
	c := closing{extra: h.extra}
	if h.e.rec != nil {
		var scrape []float64
		for i := 0; i < 20; i++ {
			start := time.Now()
			if status, _, err := h.get("/metrics"); err != nil || status != 200 {
				h.stop()
				return c, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
			}
			scrape = append(scrape, float64(time.Since(start).Nanoseconds())/1e3)
		}
		c.extra["http.metrics_scrape_us"] = median(scrape)
	}
	if h.reqs > 0 {
		c.extra["http.server_cpu_us_per_req"] = float64(h.srvCPU.Nanoseconds()) / 1e3 / float64(h.reqs)
		c.extra["http.client_cpu_share"] = float64(h.genCPU) / float64(h.genCPU+h.srvCPU)
	}
	state, err := h.stop()
	if err != nil {
		return c, fmt.Errorf("ssserve exit: %w", err)
	}
	if ru, ok := state.SysUsage().(*syscall.Rusage); ok {
		c.peakRSSMB = float64(ru.Maxrss) / 1024
	}
	return c, nil
}
