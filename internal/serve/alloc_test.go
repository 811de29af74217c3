package serve

// Allocation gates for the serving tier's own request path and rotation, in
// the style of the root package's alloc_test.go: the engine's delegation is
// 0 allocs/op, and the tier built on it must not give that back. A failure
// here means a per-request object came back (a job, a done channel, a
// closure, a journal record) or the rotation went back to touching sessions
// nobody wrote.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/durable"
)

// sinkWriter is a ResponseWriter that allocates nothing.
type sinkWriter struct {
	h    http.Header
	code int
}

func (w *sinkWriter) Header() http.Header               { return w.h }
func (w *sinkWriter) WriteHeader(code int)              { w.code = code }
func (w *sinkWriter) Write(b []byte) (int, error)       { return len(b), nil }
func (w *sinkWriter) WriteString(s string) (int, error) { return len(s), nil }

func constHandler(*Session, *http.Request) (int, string) { return http.StatusOK, "ok\n" }

func TestServeHTTPZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled zero-alloc gate not meaningful under -race")
	}
	for _, tc := range []struct {
		name      string
		durableOn bool
		rate      float64
	}{
		{"durable=false", false, 0},
		{"durable=true", true, 0},
		// A rate so high every request is admitted: the bucket on the
		// Session is checked and spent on every request.
		{"rate=1e9", false, 1e9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{EpochInterval: time.Hour, Handler: constHandler, Rate: tc.rate}
			if tc.durableOn {
				cfg.StateFS, cfg.Fsync = durable.NewMemFS(), durable.FsyncRotation
			}
			s := newTestServer(t, cfg)
			defer s.Drain()
			r := httptest.NewRequest("GET", "/bump", nil)
			r.Header.Set("X-Session-Key", "warm")
			w := &sinkWriter{h: http.Header{}}
			for i := 0; i < 5000; i++ {
				s.ServeHTTP(w, r)
			}
			if n := testing.AllocsPerRun(500, func() { s.ServeHTTP(w, r) }); n != 0 {
				t.Errorf("ServeHTTP on a warm key: %v allocs/request, want 0", n)
			}
			if w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
		})
	}
}

// discardFS takes every write and keeps nothing, so what a rotation
// allocates is the serving tier's and the store's, not the file system's.
type discardFS struct{}

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

func (discardFS) Create(string) (durable.File, error) { return discardFile{}, nil }
func (discardFS) Append(string) (durable.File, error) { return discardFile{}, nil }
func (discardFS) Open(string) (io.ReadCloser, error) {
	return nil, errors.New("discardFS: nothing kept")
}
func (discardFS) Rename(string, string) error { return nil }
func (discardFS) Remove(string) error         { return nil }
func (discardFS) List() ([]string, error)     { return nil, nil }

// rotateNow runs one rotation on the caller's goroutine.
func rotateNow(s *Server) {
	s.role.Lock()
	s.rotate()
	s.role.Unlock()
}

// waitSnapshots waits until n snapshot commits have succeeded.
func waitSnapshots(t *testing.T, s *Server, n uint64) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); s.metrics.snapshots.Load() < n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(end) {
			t.Fatalf("%d snapshots committed, want %d", s.metrics.snapshots.Load(), n)
		}
	}
}

// rotationAllocs builds a table of size sessions, then measures a cycle of k
// requests to k of them, a rotation, and the write-behind commit.
func rotationAllocs(t *testing.T, size, k int) float64 {
	s := newTestServer(t, Config{
		EpochInterval: time.Hour,
		Handler:       constHandler,
		StateFS:       discardFS{},
		Fsync:         durable.FsyncRotation,
	})
	defer s.Drain()
	keys := make([]string, size)
	r := httptest.NewRequest("GET", "/bump", nil)
	slot := []string{""}
	r.Header["X-Session-Key"] = slot
	w := &sinkWriter{h: http.Header{}}
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		slot[0] = keys[i]
		s.ServeHTTP(w, r)
	}
	cycle := func() {
		for i := 0; i < k; i++ {
			slot[0] = keys[i*(size/max(k, 1))]
			s.ServeHTTP(w, r)
		}
		before := s.metrics.snapshots.Load()
		rotateNow(s)
		if k > 0 {
			waitSnapshots(t, s, before+1)
		}
	}
	for i := 0; i < 3; i++ { // the first commit assigns every slot; lists and buffers reach their size
		cycle()
	}
	return testing.AllocsPerRun(10, cycle)
}

// TestRotationAllocsFollowWhatWasWritten: with k sessions written since the
// last hand-off, a rotation and its commit allocate the same number of
// objects over a 1 000-session table and a 20 000-session one.
func TestRotationAllocsFollowWhatWasWritten(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the job pool drops Puts at random, k requests' worth of noise")
	}
	const slack = 2
	for _, k := range []int{0, 1, 100} {
		small, large := rotationAllocs(t, 1_000, k), rotationAllocs(t, 20_000, k)
		t.Logf("k=%d: %v objects over 1 000 sessions, %v over 20 000", k, small, large)
		if d := large - small; d > slack || d < -slack {
			t.Errorf("k=%d: a rotation allocates %v objects over 1 000 sessions and %v over 20 000: it follows the table, not what was written", k, small, large)
		}
	}
}
