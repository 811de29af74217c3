package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (a request, a delegation cycle, a pass) share Op; Parent is the ID of the
// span that caused this one, 0 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
}

// spanBufCap bounds one goroutine's buffer (about 15 MB); spans past it are
// counted, not kept, so a long traced window cannot exhaust memory.
const spanBufCap = 1 << 18

// recorder is the benchmark's own tracer: in-memory per-goroutine buffers,
// written as JSON when the workload ends. It lives entirely in bench/; the
// program under test is not instrumented.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	bufs   []*spanBuf
}

// spanBuf belongs to one goroutine (or is guarded by its owner's lock).
type spanBuf struct {
	rec     *recorder
	id      int64
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// now is the recorder's clock: nanoseconds since it was created.
func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) buf() *spanBuf {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &spanBuf{rec: r, id: int64(len(r.bufs) + 1), spans: make([]span, 0, 1024)}
	r.bufs = append(r.bufs, b)
	return b
}

// add records a finished span and returns its ID (0 if the buffer is full).
func (b *spanBuf) add(name string, start, end, parent, op int64) int64 {
	if len(b.spans) >= spanBufCap {
		b.dropped++
		return 0
	}
	id := b.id<<40 | int64(len(b.spans)+1)
	b.spans = append(b.spans, span{Name: name, Start: start, End: end, ID: id, Parent: parent, Op: op})
	return id
}

// dropped counts the spans that did not fit. Call only after the goroutines
// that own the buffers have stopped.
func (r *recorder) dropped() (n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bufs {
		n += b.dropped
	}
	return n
}

// all returns every recorded span. Call only after the goroutines that own
// the buffers have stopped.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, b := range r.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfTimes groups spans by name and returns, per name, each span's self
// time in nanoseconds: its duration minus the part of that interval its child
// spans cover. A child that runs later, on another goroutine, covers none of
// it.
func selfTimes(spans []span) map[string][]float64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	covered := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			if d := min(s.End, p.End) - max(s.Start, p.Start); d > 0 {
				covered[p.ID] += d
			}
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[s.ID]))
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
