package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

// countingFS wraps the state directory of a traced serve-inproc run: it counts
// what the durability layer writes and syncs, and records a span for every
// call that reaches storage. The layer calls it from delegates, the snapshot
// writer and the router, so its span buffer sits behind a lock.
type countingFS struct {
	inner durable.FS
	rec   *recorder

	writeBytes atomic.Int64
	mu         sync.Mutex
	spans      *spanBuf
	syncNs     []float64
}

func newCountingFS(inner durable.FS, rec *recorder) *countingFS {
	return &countingFS{inner: inner, rec: rec, spans: rec.buf()}
}

// reset forgets what set-up and warm-up wrote.
func (c *countingFS) reset() {
	c.writeBytes.Store(0)
	c.mu.Lock()
	c.syncNs = nil
	c.mu.Unlock()
}

func (c *countingFS) span(name string, start int64) int64 {
	end := c.rec.now()
	c.mu.Lock()
	c.spans.add(name, start, end, 0, 0)
	c.mu.Unlock()
	return end - start
}

// report adds the durable.fs.* rows for a window of reqs requests.
func (c *countingFS) report(out map[string]float64, reqs int64, busy time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out["durable.fs.write_bytes_per_req"] = float64(c.writeBytes.Load()) / float64(reqs)
	out["durable.fs.syncs_per_s"] = float64(len(c.syncNs)) / busy.Seconds()
	out["durable.fs.sync_ms"] = median(c.syncNs) / 1e6
}

func (c *countingFS) Create(name string) (durable.File, error) {
	start := c.rec.now()
	f, err := c.inner.Create(name)
	c.span("durable.fs.create", start)
	if err != nil {
		return nil, err
	}
	return &countingFile{f, c}, nil
}

func (c *countingFS) Append(name string) (durable.File, error) {
	start := c.rec.now()
	f, err := c.inner.Append(name)
	c.span("durable.fs.append_open", start)
	if err != nil {
		return nil, err
	}
	return &countingFile{f, c}, nil
}

func (c *countingFS) Rename(oldname, newname string) error {
	start := c.rec.now()
	err := c.inner.Rename(oldname, newname)
	c.span("durable.fs.rename", start)
	return err
}

func (c *countingFS) Open(name string) (io.ReadCloser, error) { return c.inner.Open(name) }
func (c *countingFS) Remove(name string) error                { return c.inner.Remove(name) }
func (c *countingFS) List() ([]string, error)                 { return c.inner.List() }

type countingFile struct {
	durable.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := f.fs.rec.now()
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	f.fs.span("durable.fs.write", start)
	return n, err
}

func (f *countingFile) Sync() error {
	start := f.fs.rec.now()
	err := f.File.Sync()
	d := f.fs.span("durable.fs.sync", start)
	f.fs.mu.Lock()
	f.fs.syncNs = append(f.fs.syncNs, float64(d))
	f.fs.mu.Unlock()
	return err
}
