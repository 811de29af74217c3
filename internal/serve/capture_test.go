package serve

// Tests for the O(dirty) snapshot capture: a hand-off the writer could not
// take is retried by the next rotation whether or not requests keep coming,
// and what each hand-off commits is the live table at its cut, exactly,
// however the rotations, steals, faults, retries and a slow disk
// interleave.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/durable"
)

// commitFS watches snapshot commits go by on their way to the inner FS. It
// asserts the store's single-committer discipline (the reused framing
// buffer depends on it: two commits never overlap), can hold one commit
// back or slow all of them, and hands each committed generation to check.
type commitFS struct {
	durable.FS
	t        *testing.T
	delay    time.Duration             // every commit takes at least this long
	hold     chan struct{}             // non-nil: the holdAt'th commit waits for it to close
	holdAt   int32                     // 1-based, counting from the boot commit
	held     chan struct{}             // closed once that commit is waiting
	check    func(r *durable.Recovery) // after each commit, on the committer
	commits  atomic.Int32
	inflight atomic.Int32
}

func (f *commitFS) Create(name string) (durable.File, error) {
	if strings.HasSuffix(name, ".tmp") {
		if n := f.inflight.Add(1); n != 1 {
			f.t.Errorf("%d snapshot commits in flight: the store's framing buffer has one committer", n)
		}
		if f.commits.Add(1) == f.holdAt {
			close(f.held)
			<-f.hold
		}
		time.Sleep(f.delay)
	}
	return f.FS.Create(name)
}

func (f *commitFS) Rename(oldname, newname string) error {
	err := f.FS.Rename(oldname, newname)
	if strings.HasSuffix(oldname, ".tmp") {
		f.inflight.Add(-1)
		if err == nil && f.check != nil {
			rec, rerr := durable.NewStore(f.FS).Recover()
			if rerr != nil {
				f.t.Errorf("recover after commit: %v", rerr)
			} else {
				f.check(rec)
			}
		}
	}
	return err
}

// TestDeferredCaptureRetriedWhenIdle: with snapshots the only durability
// (NoJournal), a hand-off the busy writer could not take must reach storage
// within the next rotations even if no request ever arrives again — the
// lists stay in place, so the next rotation hands them over.
func TestDeferredCaptureRetriedWhenIdle(t *testing.T) {
	inner := durable.NewMemFS()
	cfs := &commitFS{FS: inner, t: t, hold: make(chan struct{}), holdAt: 2, held: make(chan struct{})}
	s1 := newTestServer(t, Config{StateFS: cfs, NoJournal: true, EpochInterval: time.Hour})
	h1 := s1.Handler()
	acked := map[string]string{}
	hit := func(keys ...string) {
		for _, k := range keys {
			acked[k] = bump(t, h1, k)
		}
	}

	hit("alice", "alice", "alice")
	rotateNow(s1) // hand-off 1: the writer takes it and stalls in its commit
	<-cfs.held
	hit("alice", "bob")
	rotateNow(s1) // hand-off 2 waits in the slot behind the stalled commit
	hit("carol", "alice")
	rotateNow(s1) // no room: deferred
	if got := s1.metrics.snapshotSkipped.Load(); got != 1 {
		t.Fatalf("ss_snapshot_skipped_total = %d after a rotation found the writer busy, want 1", got)
	}
	close(cfs.hold)
	waitSnapshots(t, s1, 2)

	// No further traffic. The first rotation retries the deferred hand-off,
	// the second has nothing left to do.
	rotateNow(s1)
	waitSnapshots(t, s1, 3)
	rotateNow(s1)
	if got := s1.metrics.snapshotSkipped.Load(); got != 1 {
		t.Errorf("ss_snapshot_skipped_total = %d, want still 1", got)
	}
	s1.kill()

	s2 := newTestServer(t, Config{StateFS: inner, NoJournal: true, EpochInterval: time.Hour})
	defer s2.Drain()
	for key, seq := range acked {
		want, _ := strconv.Atoi(seq)
		if got := bump(t, s2.Handler(), key); got != strconv.Itoa(want+1) {
			t.Errorf("key %s: acknowledged seq %s, successor continues at %s: the deferred capture never reached storage", key, seq, got)
		}
	}
}

// TestNewSessionIsCapturedBeforeItRuns: a session enters the live table at
// delivery, so the capture has to list it there — a request that creates
// its key's session and then expires at the queue front never reaches the
// point where a delegate would list it.
func TestNewSessionIsCapturedBeforeItRuns(t *testing.T) {
	inner := durable.NewMemFS()
	var committed []string
	cfs := &commitFS{FS: inner, t: t}
	cfs.check = func(rec *durable.Recovery) { committed = canonRecords(t, rec.SnapshotRecords) }
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		StateFS:        cfs,
		Delegates:      1,
		EpochInterval:  time.Hour,
		RequestTimeout: 50 * time.Millisecond,
		Handler: func(sess *Session, r *http.Request) (int, string) {
			if r.Header.Get("X-Wait") == "1" {
				<-gate // ignores its deadline: the queue behind it expires
			}
			return http.StatusOK, "ok"
		},
	})
	h := s.Handler()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		get(t, h, "/", "slow", map[string]string{"X-Wait": "1"})
	}()
	for s.inflight.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		defer wg.Done()
		if code, _ := get(t, h, "/", "never-ran", nil); code != http.StatusGatewayTimeout {
			t.Errorf("request queued behind the stalled one: status %d, want 504", code)
		}
	}()
	for s.inflight.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(60 * time.Millisecond) // the queued request's budget runs out
	close(gate)
	wg.Wait()

	s.role.Lock()
	live := canonRecords(t, encodeSessions(s.sessions))
	s.role.Unlock()
	rotateNow(s)
	waitSnapshots(t, s, 1) // counted after the commit returned: committed is ours to read
	handedOff := committed
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(live) != 2 || !strings.Contains(strings.Join(live, " "), `/0/"never-ran"/`) {
		t.Fatalf("live table %v, want the stalled key and the never-run key at seq 0", live)
	}
	if !slices.Equal(handedOff, live) {
		t.Errorf("the hand-off committed %v, live table %v", handedOff, live)
	}
}

// TestCaptureIntervalWrap: the per-session capture stamp is 32 bits, so
// after 2^32 hand-offs the interval counter comes round to values sessions
// still carry — zero, for every session recovery rebuilt and nobody has
// written since. Such a session must still be listed when it is written.
func TestCaptureIntervalWrap(t *testing.T) {
	fs := durable.NewMemFS()
	cfg := Config{StateFS: fs, NoJournal: true, EpochInterval: time.Hour}
	s0 := newTestServer(t, cfg)
	bump(t, s0.Handler(), "old")
	if err := s0.Drain(); err != nil {
		t.Fatal(err)
	}

	s1 := newTestServer(t, cfg) // recovers "old"
	h1 := s1.Handler()
	s1.role.Lock()
	s1.stamp = ^uint32(0) // 2^32 - 2 hand-offs later
	s1.role.Unlock()
	bump(t, h1, "other")
	rotateNow(s1) // the counter wraps
	waitSnapshots(t, s1, 1)
	bump(t, h1, "old")
	rotateNow(s1)
	waitSnapshots(t, s1, 2)
	s1.kill()

	s2 := newTestServer(t, cfg)
	defer s2.Drain()
	if got := bump(t, s2.Handler(), "old"); got != "3" {
		t.Errorf("key old continues at %s after two acknowledged requests, each captured, want 3", got)
	}
}

// canonRecords decodes session records into comparable, sorted text.
func canonRecords(t *testing.T, records [][]byte) []string {
	out := make([]string, 0, len(records))
	for _, payload := range records {
		sess, ok := decodeSession(payload)
		if !ok {
			t.Errorf("undecodable session record %x", payload)
			continue
		}
		out = append(out, fmt.Sprintf("%d/%d/%q/%v", sess.Set, sess.Seq, sess.Key, sess.Data))
	}
	slices.Sort(out)
	return out
}

// TestCaptureEqualsLiveTable is the equivalence suite: at every hand-off a
// hook takes the reference capture (encodeSessions over the whole table, as
// every rotation used to), and the generation the writer then commits must
// decode to exactly that set of records. The run makes the capture's life
// hard — 1 ms epochs, a 3-delegate pool, a 6-hot / many-cold mix for the
// stealer, a key that panics, retries, and commits
// slow enough that hand-offs coalesce — and ends in a kill, after which the
// fsync policy's acked-loss bound must hold as it always has.
func TestCaptureEqualsLiveTable(t *testing.T) {
	for _, policy := range []durable.FsyncPolicy{durable.FsyncAlways, durable.FsyncRotation, durable.FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) { captureEqualsLiveTable(t, policy) })
	}
}

func captureEqualsLiveTable(t *testing.T, policy durable.FsyncPolicy) {
	inner := durable.NewMemFS()
	var (
		mu      sync.Mutex
		want    = map[uint64][]string{} // generation → reference capture at its cut
		cuts    int
		checked int
	)
	cfs := &commitFS{FS: inner, t: t, delay: 3 * time.Millisecond}
	cfs.check = func(rec *durable.Recovery) {
		mu.Lock()
		ref, ok := want[rec.SnapshotGen]
		delete(want, rec.SnapshotGen)
		mu.Unlock()
		if !ok {
			return // the boot commit: no hand-off made it
		}
		mu.Lock()
		checked++
		mu.Unlock()
		if got := canonRecords(t, rec.SnapshotRecords); !slices.Equal(got, ref) {
			t.Errorf("generation %d: committed %d records, the live table at its cut had %d; first difference: %s",
				rec.SnapshotGen, len(got), len(ref), firstDiff(got, ref))
		}
	}
	s1 := newTestServer(t, Config{
		StateFS:       cfs,
		Fsync:         policy,
		EpochInterval: time.Millisecond,
		Delegates:     3,
		RetryMax:      20,
		Backend: &chaosBackend{
			h:      testHandler,
			errors: chaos.SeededErrors(7, 0.1),
		},
	})
	s1.role.Lock()
	s1.cutHook = func(gen uint64) {
		ref := canonRecords(t, encodeSessions(s1.sessions))
		mu.Lock()
		want[gen] = ref
		cuts++
		mu.Unlock()
	}
	s1.role.Unlock()
	h1 := s1.Handler()

	var (
		ackMu   sync.Mutex
		acked   = map[string]uint64{}
		stopped atomic.Bool
	)
	for c := 0; c < 8; c++ {
		go func(c int) { // never joined: a request in flight at the kill parks forever
			x := uint64(c)*0x9e3779b97f4a7c15 + 1
			for i := 0; !stopped.Load(); i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				key := fmt.Sprintf("cold-%d", x%150)
				if x>>32%10 < 7 {
					key = fmt.Sprintf("hot-%d", x%6)
				}
				r := httptest.NewRequest("GET", "/bump", nil)
				if c == 0 && i%16 == 0 {
					key = "boom"
					r.Header.Set("X-Boom", "1") // panics; poisons the key for the epoch
				}
				r.Header.Set("X-Session-Key", key)
				w := httptest.NewRecorder()
				h1.ServeHTTP(w, r)
				if seq, err := strconv.ParseUint(w.Body.String(), 10, 64); w.Code == http.StatusOK && err == nil {
					ackMu.Lock()
					acked[key] = max(acked[key], seq)
					ackMu.Unlock()
				}
			}
		}(c)
	}

	// Let it run, mark a point, and kill mid-traffic two rotations later:
	// whatever was acknowledged before the mark had a rotation close its
	// journal behind it.
	time.Sleep(150 * time.Millisecond)
	ackMu.Lock()
	ackedAtMark := make(map[string]uint64, len(acked))
	for k, v := range acked {
		ackedAtMark[k] = v
	}
	ackMu.Unlock()
	for e0, end := s1.Stats().Epochs, time.Now().Add(10*time.Second); s1.Stats().Epochs < e0+3; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("rotations stopped")
		}
	}
	s1.kill()
	stopped.Store(true)

	// The abandoned delegates finish what was already delegated, the writer
	// what was already handed off; after that nothing reaches storage.
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var queued uint64
		for _, d := range s1.rt.QueueDepths(nil) {
			queued += d
		}
		mu.Lock()
		handed := cuts
		mu.Unlock()
		if queued == 0 && s1.metrics.snapshots.Load()+s1.metrics.snapshotFailures.Load() == uint64(handed) {
			break
		}
		if time.Now().After(end) {
			t.Fatal("abandoned delegates and writer never went quiet")
		}
	}
	st := s1.rt.Stats() // the runtime is abandoned and quiet: nobody else is its program context
	deferred := s1.metrics.snapshotSkipped.Load()
	panics := s1.metrics.panics.Load()
	t.Logf("%d hand-offs, %d checked, %d deferred, %d retries, %d steals, %d panics",
		cuts, checked, deferred, s1.metrics.retries.Load(), st.Steals, panics)
	if checked != cuts || checked < 3 {
		t.Errorf("%d of %d hand-offs checked, want all of at least 3", checked, cuts)
	}
	if deferred == 0 || s1.metrics.retries.Load() == 0 || panics == 0 {
		t.Errorf("deferred %d, retries %d, panics %d: the drill missed one of them",
			deferred, s1.metrics.retries.Load(), panics)
	}
	live := map[string]uint64{}
	s1.role.Lock()
	for _, sess := range s1.sessions {
		live[sess.Key] = sess.Seq
	}
	s1.role.Unlock()

	s2 := newTestServer(t, durableCfg(inner, policy))
	defer s2.Drain()
	recovered := map[string]uint64{}
	for _, sess := range s2.sessions {
		recovered[sess.Key] = sess.Seq
	}
	for key, seq := range recovered {
		if seq > live[key] {
			t.Errorf("key %s: recovered seq %d, the killed server had reached %d", key, seq, live[key])
		}
	}
	floor := map[string]uint64{} // off: buffered records are the documented loss
	switch policy {
	case durable.FsyncAlways:
		ackMu.Lock()
		floor = acked
		defer ackMu.Unlock()
	case durable.FsyncRotation:
		floor = ackedAtMark
	}
	if len(floor) == 0 && policy != durable.FsyncOff {
		t.Fatal("nothing acknowledged")
	}
	for key, seq := range floor {
		if recovered[key] < seq {
			t.Errorf("fsync=%v, key %s: seq %d was acknowledged inside the policy's bound, recovered %d", policy, key, seq, recovered[key])
		}
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("committed %q, live %q", g, w)
		}
	}
	return "none"
}
