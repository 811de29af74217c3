package durable

import (
	"fmt"
	"sync"
)

// journalBufSize is the user-space buffer the journal accumulates frames
// in before writing through to the FS. Under FsyncOff this buffer is the
// loss bound for a kill -9 (writes that reached the FS survive process
// death; the buffer does not). FsyncRotation flushes and syncs it at every
// epoch rotation; FsyncAlways flushes and syncs every append.
const journalBufSize = 64 << 10

// Journal is the append-only intra-epoch log: everything that changed
// since the generation's snapshot, one checksummed frame per append.
// Append is safe for concurrent use — delegate contexts for different
// serialization sets journal concurrently — and the fsync policy decides
// what an append means for durability before it returns.
type Journal struct {
	mu     sync.Mutex
	f      File
	buf    []byte
	policy FsyncPolicy
	closed bool
	torn   bool // a partial write left the file mid-frame; appends refused
}

// OpenJournal opens (creating or extending) generation gen's journal with
// the given fsync policy. The serving tier opens a FRESH generation at
// every boot and snapshot commit, so appends never land after a torn tail
// from an earlier crash — recovery reads torn files, the writer never
// extends them.
func (s *Store) OpenJournal(gen uint64, policy FsyncPolicy) (*Journal, error) {
	f, err := s.fs.Append(walName(gen))
	if err != nil {
		return nil, fmt.Errorf("durable: journal %d: %w", gen, err)
	}
	return &Journal{f: f, buf: make([]byte, 0, journalBufSize), policy: policy}, nil
}

// Append frames payload into the journal. Under FsyncAlways the record is
// flushed and synced before Append returns — the caller may acknowledge
// whatever the record describes. Under the other policies the record is
// buffered (flushed when the buffer fills) and the loss-bound contract is
// the policy's, not Append's.
func (j *Journal) Append(payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	if j.torn {
		return errTorn
	}
	j.buf = appendRecord(j.buf, payload)
	if j.policy == FsyncAlways {
		if err := j.flushLocked(); err != nil {
			return err
		}
		return j.f.Sync()
	}
	if len(j.buf) >= journalBufSize {
		return j.flushLocked()
	}
	return nil
}

// Sync flushes the buffer and syncs the file in place. Rotation normally
// gets its per-epoch sync from closing the journal it swaps out; the
// serving tier calls Sync only when, under FsyncRotation, the next
// generation fails to open and the old journal has to stay.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	if err := j.flushLocked(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close flushes and closes, syncing first unless the policy is FsyncOff
// (off promises no fsyncs at all — the flush hands the buffer to the OS,
// which is enough to survive a kill -9 but not a power cut). Further
// Appends return errClosed — the swap-then-close dance at a snapshot
// commit may race a last append onto the closing journal, which is safe
// (the record lands before the close) or refused (after), never torn.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.flushLocked(); err != nil {
		j.f.Close()
		return err
	}
	if j.policy != FsyncOff {
		if err := j.f.Sync(); err != nil {
			j.f.Close()
			return err
		}
	}
	return j.f.Close()
}

func (j *Journal) flushLocked() error {
	if len(j.buf) == 0 {
		return nil
	}
	n, err := j.f.Write(j.buf)
	j.buf = j.buf[:0] // never retry into an unknown file position
	if err != nil {
		// The failed records are lost either way (the caller counts the
		// failure and serving continues on snapshot durability). What
		// matters is the FILE: if the FS accepted part of the buffer, the
		// file ends mid-frame, and any frame appended after it would be
		// unreadable — recovery stops at the first bad frame. Refuse
		// further appends on a torn file; the next snapshot commit opens a
		// fresh generation and journaling resumes there.
		if n > 0 {
			j.torn = true
		}
		return err
	}
	return nil
}
