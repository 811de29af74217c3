package chaos

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

// FaultyFS wraps a durable.FS with deterministic write faults — the
// storage-side counterpart of the backend injectors above. Every Write on
// a file opened through the wrapper counts one operation (on set 0 of the
// Errors injector's coordinate space, in open-call order), so a seeded
// profile injects the same faults at the same byte positions run over
// run, and an ErrorsAfter profile models a disk that goes bad at a chosen
// moment and stays bad.
//
// Faults come in two shapes. The default is a clean refusal: Write
// returns (0, Injected) and the file is unchanged — the shape of a full
// disk or a revoked handle. With Short set, the wrapper delivers HALF the
// buffer to the inner FS before failing — the torn-write shape, leaving
// the file mid-frame exactly the way a crash during a write would, which
// is what the durability layer's tear detection exists to catch.
//
// Reads, renames, removes, and listings pass through untouched: the
// drills exercise how the WRITER degrades (snapshot failures must not
// regress the committed generation), not whether recovery can read.
type FaultyFS struct {
	// Inner is the wrapped FS.
	Inner durable.FS
	// Errors triggers write faults; each Write counts one operation of
	// set 0. Nil injects nothing.
	Errors *Errors
	// Short makes injected faults deliver half the buffer before failing
	// (a torn write) instead of refusing cleanly.
	Short bool
	// Latency delays writes when its trigger fires (set 0). Nil adds none.
	Latency *Latency

	faults atomic.Uint64
}

// WrapFS returns a FaultyFS injecting errs into writes on inner.
func WrapFS(inner durable.FS, errs *Errors) *FaultyFS {
	return &FaultyFS{Inner: inner, Errors: errs}
}

// Faults reports how many write faults the wrapper has injected.
func (f *FaultyFS) Faults() uint64 { return f.faults.Load() }

func (f *FaultyFS) Create(name string) (durable.File, error) {
	inner, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

func (f *FaultyFS) Append(name string) (durable.File, error) {
	inner, err := f.Inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

func (f *FaultyFS) Open(name string) (io.ReadCloser, error) { return f.Inner.Open(name) }
func (f *FaultyFS) Rename(oldname, newname string) error    { return f.Inner.Rename(oldname, newname) }
func (f *FaultyFS) Remove(name string) error                { return f.Inner.Remove(name) }
func (f *FaultyFS) List() ([]string, error)                 { return f.Inner.List() }

type faultyFile struct {
	fs    *FaultyFS
	inner durable.File
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	if ff.fs.Latency != nil {
		if d := ff.fs.Latency.Delay(0); d > 0 {
			time.Sleep(d)
		}
	}
	if ff.fs.Errors != nil {
		if err := ff.fs.Errors.Err(0); err != nil {
			ff.fs.faults.Add(1)
			if ff.fs.Short && len(p) > 1 {
				n, werr := ff.inner.Write(p[:len(p)/2])
				if werr != nil {
					return n, werr
				}
				return n, err
			}
			return 0, err
		}
	}
	return ff.inner.Write(p)
}

func (ff *faultyFile) Sync() error  { return ff.inner.Sync() }
func (ff *faultyFile) Close() error { return ff.inner.Close() }

// ErrorsAfter returns an error injector whose operations 1..n succeed and
// everything after fails, permanently — the "storage goes bad and stays
// bad" profile for snapshot-failure drills, where the interesting
// property is that serving continues on the last good generation.
func ErrorsAfter(n uint64) *Errors {
	return &Errors{newCounter(func(_, k uint64) bool { return k > n })}
}
