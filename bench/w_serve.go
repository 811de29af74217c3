package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
)

// keySpace is a request mix: with probability hotFrac a request goes to one
// of a few hot keys, otherwise to a uniformly chosen cold key.
type keySpace struct {
	keys    []string // hot keys first
	hot     int
	hotFrac float64
}

func newKeySpace(hot, cold int, hotFrac float64) *keySpace {
	ks := &keySpace{hot: hot, hotFrac: hotFrac}
	for i := 0; i < hot; i++ {
		ks.keys = append(ks.keys, "hot-"+strconv.Itoa(i))
	}
	for i := 0; i < cold; i++ {
		ks.keys = append(ks.keys, "cold-"+strconv.Itoa(i))
	}
	return ks
}

func (ks *keySpace) pick(rng *splitmix) int {
	if float64(rng.next()>>11)/float64(1<<53) < ks.hotFrac {
		return int(rng.next() % uint64(ks.hot))
	}
	return ks.hot + int(rng.next()%uint64(len(ks.keys)-ks.hot))
}

// An acknowledgement is packed as key index and sequence number.
const ackSeqBits = 40

func packAck(key int, seq uint64) uint64 { return uint64(key)<<ackSeqBits | seq }

// seqChecker holds loadgen's two invariants on the raw acknowledgements,
// round by round: a caller that asks for one key twice sees its sequence
// number rise, and no (key, seq) is ever acknowledged twice, by anyone.
type seqChecker struct {
	last    [][]uint64 // per caller, per key: last sequence seen
	acked   []uint64   // per key: highest sequence acknowledged in earlier rounds
	scratch []uint64
}

func newSeqChecker(callers, keys int) *seqChecker {
	c := &seqChecker{acked: make([]uint64, keys)}
	for i := 0; i < callers; i++ {
		c.last = append(c.last, make([]uint64, keys))
	}
	return c
}

// check takes each caller's acknowledgements of one round, in issue order.
// Rounds do not overlap, so every sequence number must also exceed whatever
// the key had reached when the round began.
func (c *seqChecker) check(acks [][]uint64) error {
	c.scratch = c.scratch[:0]
	for ci, as := range acks {
		for _, a := range as {
			key, seq := int(a>>ackSeqBits), a&(1<<ackSeqBits-1)
			if seq <= c.last[ci][key] {
				return fmt.Errorf("caller %d, key %d: sequence %d after %d", ci, key, seq, c.last[ci][key])
			}
			c.last[ci][key] = seq
		}
		c.scratch = append(c.scratch, as...)
	}
	slices.Sort(c.scratch)
	for i, a := range c.scratch {
		key, seq := int(a>>ackSeqBits), a&(1<<ackSeqBits-1)
		if i > 0 && c.scratch[i-1] == a {
			return fmt.Errorf("key %d: sequence %d acknowledged twice", key, seq)
		}
		if (i == 0 || int(c.scratch[i-1]>>ackSeqBits) != key) && seq <= c.acked[key] {
			return fmt.Errorf("key %d: sequence %d acknowledged again in a later round (had reached %d)", key, seq, c.acked[key])
		}
		c.acked[key] = max(c.acked[key], seq)
	}
	return nil
}

// parseCounterBody reads ssserve's counter response, "key=K seq=N\n".
func parseCounterBody(body []byte, key string) (uint64, bool) {
	rest, ok := bytes.CutPrefix(body, []byte("key="))
	if !ok {
		return 0, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(key)); !ok {
		return 0, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(" seq=")); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(string(bytes.TrimSuffix(rest, []byte("\n"))), 10, 64)
	return seq, err == nil
}

// counterHandler is cmd/ssserve's handler for /bump, the one request the
// benchmark sends.
func counterHandler(s *serve.Session, _ *http.Request) (int, string) {
	return http.StatusOK, fmt.Sprintf("key=%s seq=%d\n", s.Key, s.Seq)
}

const sessionKeyHeader = "X-Session-Key"

// caller is one closed-loop client: it sends its next request only when the
// previous one has been answered. It owns one request, re-keyed per call, and
// one response writer.
type caller struct {
	rng  splitmix
	req  *http.Request
	slot []string // the request's X-Session-Key header value
	rw   respWriter
	lat  []int64
	acks []uint64

	// Traced runs: stamps taken where the server calls back into benchmark
	// code, and when each request completed.
	st    stageStamps
	spans *spanBuf
	ends  []int64
	n     int64
}

type stageStamps struct{ key, exec0, exec1, first int64 }

// callerHeader names the caller a traced request came from, so that the
// benchmark's KeyFunc and Handler can find its stamps. A header, because the
// in-process backend hands the handler a copy of the request with a fresh
// context.
const callerHeader = "X-Bench-Caller"

func newCaller(idx int, seed uint64, rec *recorder, n int) *caller {
	c := &caller{rng: splitmix(seed), lat: make([]int64, 0, n), acks: make([]uint64, 0, n)}
	c.slot = []string{""}
	c.req, _ = http.NewRequest(http.MethodGet, "/bump", nil)
	c.req.Header[sessionKeyHeader] = c.slot
	if idx >= 0 {
		c.req.Header[callerHeader] = []string{strconv.Itoa(idx)}
	}
	c.rw = respWriter{h: http.Header{}, c: c, rec: rec}
	if rec != nil {
		c.spans = rec.buf()
		c.ends = make([]int64, 0, n)
	}
	return c
}

// respWriter is the benchmark's http.ResponseWriter: it keeps the status and
// checks the body, and in a traced run stamps the server's first call to it.
type respWriter struct {
	h      http.Header
	c      *caller
	rec    *recorder
	want   string
	status int
	seq    uint64
	bodyOK bool
}

func (w *respWriter) touch() {
	if w.rec != nil && w.c.st.first == 0 {
		w.c.st.first = w.rec.now()
	}
}

func (w *respWriter) Header() http.Header { w.touch(); return w.h }

func (w *respWriter) WriteHeader(code int) { w.touch(); w.status = code }

func (w *respWriter) Write(b []byte) (int, error) {
	w.touch()
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.seq, w.bodyOK = parseCounterBody(b, w.want)
	return len(b), nil
}

// do sends one request for key through the server's request path, with no
// socket, and returns false if it was not served correctly.
func (c *caller) do(srv *serve.Server, keys []string, key int) bool {
	c.slot[0] = keys[key]
	c.rw.want, c.rw.status, c.rw.bodyOK = keys[key], 0, false
	rec := c.rw.rec
	var t0 int64
	if rec != nil {
		c.st = stageStamps{}
		t0 = rec.now()
	}
	start := time.Now()
	srv.ServeHTTP(&c.rw, c.req)
	c.lat = append(c.lat, int64(time.Since(start)))
	if rec != nil {
		t1 := rec.now()
		c.ends = append(c.ends, t1)
		if c.n++; c.n%traceEvery == 0 && c.st.exec1 != 0 {
			op := c.spans.id<<40 | c.n
			p := c.spans.add("serve.request", t0, t1, 0, op)
			c.spans.add("serve.stage.admit", t0, c.st.key, p, op)
			c.spans.add("serve.stage.route", c.st.key, c.st.exec0, p, op)
			c.spans.add("serve.stage.exec", c.st.exec0, c.st.exec1, p, op)
			c.spans.add("serve.stage.finish", c.st.exec1, c.st.first, p, op)
			c.spans.add("serve.stage.write", c.st.first, t1, p, op)
		}
	}
	if c.rw.status != http.StatusOK || !c.rw.bodyOK {
		return false
	}
	c.acks = append(c.acks, packAck(key, c.rw.seq))
	return true
}

// inprocState is the key space and the checker of an in-process serving run.
// With a state directory (dir != "") it outlives one instance: the directory
// carries sequence numbers from boot to boot, and so must the checker.
type inprocState struct {
	ks    *keySpace
	chk   *seqChecker
	dir   string  // empty: memory-only sessions
	newMs float64 // boot on an empty directory
}

// newInprocState: half the requests on 16 hot keys, half spread uniformly over
// 20 000 cold ones, so 20 016 live sessions.
func newInprocState(e *env) *inprocState {
	ks := newKeySpace(16, e.pick(20_000, 500), 0.5)
	return &inprocState{ks: ks, chk: newSeqChecker(e.nproc, len(ks.keys))}
}

// serveInprocWorkload is serve-inproc: the whole request path of
// internal/serve and internal/durable, and nothing of net/http or the kernel.
func serveInprocWorkload() *workload {
	var st *inprocState
	w := &workload{
		name: "serve-inproc",
		why:  "durable serving with no socket: admission, router, delegate, journal and the rotation snapshot of 20016 sessions are the whole cost",
	}
	w.prepare = func(e *env) error {
		st = newInprocState(e)
		return st.populate(filepath.Join(e.dir, "state-serve-inproc"), e)
	}
	w.setup = func(e *env) (instance, error) { return newInprocInstance(e, st) }
	return w
}

// serveMemWorkload is the memory-only twin of serve-inproc, run only for the
// per-layer table: same keys, no state directory.
func serveMemWorkload() *workload {
	return &workload{
		name:  "serve-mem",
		setup: func(e *env) (instance, error) { return newInprocInstance(e, newInprocState(e)) },
	}
}

// config is the server's configuration. callers is nil for an untraced server;
// for a traced one it is the table the callback seams look the caller up in.
func (st *inprocState) config(e *env, fs durable.FS, callers *[]*caller) serve.Config {
	cfg := serve.Config{
		Delegates:     e.delegates(),
		EpochInterval: 100 * time.Millisecond,
		Handler:       counterHandler,
		StateFS:       fs,
		Fsync:         durable.FsyncRotation,
	}
	if callers != nil {
		find := func(r *http.Request) *caller {
			h := r.Header[callerHeader]
			if h == nil { // the untraced caller that creates the sessions
				return nil
			}
			i, _ := strconv.Atoi(h[0])
			return (*callers)[i]
		}
		cfg.KeyFunc = func(r *http.Request) string {
			if c := find(r); c != nil {
				c.st.key = c.rw.rec.now()
			}
			return r.Header.Get(sessionKeyHeader)
		}
		cfg.Handler = func(s *serve.Session, r *http.Request) (int, string) {
			c := find(r)
			if c == nil {
				return counterHandler(s, r)
			}
			c.st.exec0 = c.rw.rec.now()
			status, body := counterHandler(s, r)
			c.st.exec1 = c.rw.rec.now()
			return status, body
		}
	}
	return cfg
}

// populate creates every session once on an empty state directory and drains,
// so that each timed boot afterwards is a recovery of the full table.
func (st *inprocState) populate(dir string, e *env) error {
	st.dir = dir
	if err := os.RemoveAll(st.dir); err != nil {
		return err
	}
	fs, err := durable.NewDirFS(st.dir)
	if err != nil {
		return err
	}
	start := time.Now()
	srv, err := serve.New(st.config(e, fs, nil))
	if err != nil {
		return err
	}
	st.newMs = float64(time.Since(start).Nanoseconds()) / 1e6
	if err := st.touchAll(srv); err != nil {
		return err
	}
	return srv.Drain()
}

// touchAll sends one request to every key and checks the answers against what
// has been acknowledged so far: each must be exactly one higher.
func (st *inprocState) touchAll(srv *serve.Server) error {
	c := newCaller(-1, 0, nil, len(st.ks.keys))
	for k := range st.ks.keys {
		if !c.do(srv, st.ks.keys, k) {
			return fmt.Errorf("key %s: status %d", st.ks.keys[k], c.rw.status)
		}
		if want := st.chk.acked[k] + 1; c.rw.seq != want {
			return fmt.Errorf("key %s: sequence %d, want %d (last acknowledged + 1)", st.ks.keys[k], c.rw.seq, want)
		}
		st.chk.acked[k] = c.rw.seq
	}
	return nil
}

type inprocInstance struct {
	e       *env
	st      *inprocState
	srv     *serve.Server
	fs      *countingFS
	callers []*caller
	perCall int
	extra   map[string]float64
	stalls  []float64 // per 100 ms window of a traced run: the worst latency, µs
	reqs    int64
	busy    time.Duration
	lat     []int64 // the callers' samples of one round, merged; reused
}

func newInprocInstance(e *env, st *inprocState) (*inprocInstance, error) {
	in := &inprocInstance{e: e, st: st, perCall: e.pick(30_000, 1_000), extra: map[string]float64{}}
	var fs durable.FS
	if st.dir != "" {
		dirFS, err := durable.NewDirFS(st.dir)
		if err != nil {
			return nil, err
		}
		fs = dirFS
		if e.rec != nil {
			in.fs = newCountingFS(dirFS, e.rec)
			fs = in.fs
		}
	}
	var traced *[]*caller
	if e.rec != nil {
		traced = &in.callers
	}
	start := time.Now()
	srv, err := serve.New(st.config(e, fs, traced))
	if err != nil {
		return nil, err
	}
	in.srv = srv
	if st.dir != "" {
		in.extra["serve.new_ms"] = st.newMs
		in.extra["serve.recover_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
		if n, _ := srv.Recovered(); n != len(st.ks.keys) {
			srv.Drain()
			return nil, fmt.Errorf("recovered %d sessions, want %d", n, len(st.ks.keys))
		}
	} else if err := st.touchAll(srv); err != nil {
		srv.Drain()
		return nil, err
	}
	rng := splitmix(e.seed)
	for i := 0; i < e.nproc; i++ {
		in.callers = append(in.callers, newCaller(i, rng.next(), e.rec, in.perCall))
	}
	for i := 0; i < 2; i++ { // warm-up rounds, part of set-up
		if _, err := in.round(); err != nil {
			srv.Drain()
			return nil, err
		}
	}
	if in.fs != nil {
		in.fs.reset()
	}
	in.reqs, in.busy, in.stalls = 0, 0, nil
	return in, nil
}

func (in *inprocInstance) round() (round, error) {
	var wg sync.WaitGroup
	failed := make([]int64, len(in.callers))
	cpu0 := selfCPU()
	start := time.Now()
	for ci, c := range in.callers {
		c.lat, c.acks = c.lat[:0], c.acks[:0]
		if c.ends != nil {
			c.ends = c.ends[:0]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < in.perCall; i++ {
				if !c.do(in.srv, in.st.ks.keys, in.st.ks.pick(&c.rng)) {
					failed[ci]++
				}
			}
		}()
	}
	wg.Wait()
	r := round{wall: time.Since(start), cpu: selfCPU() - cpu0, lat: in.lat[:0]}
	acks := make([][]uint64, len(in.callers))
	for ci, c := range in.callers {
		r.lat = append(r.lat, c.lat...)
		r.failed += failed[ci]
		acks[ci] = c.acks
		in.windowStalls(c)
	}
	in.lat = r.lat
	r.ops = int64(len(r.lat)) - r.failed
	in.reqs += r.ops
	in.busy += r.wall
	return r, in.st.chk.check(acks)
}

// windowStalls cuts a traced caller's round into 100 ms windows and keeps
// each window's worst latency: the rotation barrier shows up there.
func (in *inprocInstance) windowStalls(c *caller) {
	const window = int64(100 * time.Millisecond)
	var cur, worst int64 = -1, 0
	for i, end := range c.ends {
		if w := end / window; w != cur {
			if cur >= 0 {
				in.stalls = append(in.stalls, float64(worst)/1e3)
			}
			cur, worst = w, 0
		}
		worst = max(worst, c.lat[i])
	}
}

func (in *inprocInstance) close() (closing, error) {
	core := in.srv.Stats()
	start := time.Now()
	if err := in.srv.Drain(); err != nil {
		return closing{}, err
	}
	drainMs := float64(time.Since(start).Nanoseconds()) / 1e6
	c := closing{peakRSSMB: selfPeakRSSMB(), core: core, extra: in.extra}
	if in.st.dir == "" {
		if len(in.stalls) > 0 {
			c.extra["serve.rotation.stall_us.mem"] = median(in.stalls)
		}
		return c, nil
	}
	if len(in.stalls) > 0 {
		c.extra["serve.rotation.stall_us.durable"] = median(in.stalls)
	}
	c.extra["serve.drain_ms"] = drainMs
	if in.fs != nil && in.reqs > 0 {
		in.fs.report(c.extra, in.reqs, in.busy)
	}
	// A clean drain is lossless: boot once more and ask every key for its
	// next sequence number.
	fs, err := durable.NewDirFS(in.st.dir)
	if err != nil {
		return closing{}, err
	}
	srv, err := serve.New(in.st.config(in.e, fs, nil))
	if err != nil {
		return closing{}, err
	}
	if n, _ := srv.Recovered(); n != len(in.st.ks.keys) {
		srv.Drain()
		return closing{}, fmt.Errorf("after drain: recovered %d sessions, want %d", n, len(in.st.ks.keys))
	}
	if err := in.st.touchAll(srv); err != nil {
		srv.Drain()
		return closing{}, fmt.Errorf("after drain: %w", err)
	}
	return c, srv.Drain()
}
