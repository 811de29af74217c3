// Package durable is the serving tier's durability layer: epoch-consistent
// snapshots plus a checksummed intra-epoch journal over a pluggable
// storage seam, and the recovery procedure that turns whatever a crash
// left behind into a usable session table.
//
// # Data layout
//
// A Store owns a flat namespace of files inside one FS:
//
//	snap-<gen>.snap   committed snapshot, generation <gen>
//	snap-<gen>.tmp    in-flight snapshot write (garbage after a crash)
//	wal-<gen>.wal     journal of everything appended SINCE snapshot <gen>
//
// Generations strictly increase across commits and across process
// restarts. A snapshot is a framed header record, one framed payload
// record per entry, and a framed trailer whose count must match — so a
// snapshot is either provably complete or not a snapshot. Commit is
// write-temp, sync, rename: the rename is the atomic commit point, and a
// crash at any earlier moment leaves the previous generation untouched.
//
// # Recovery
//
// Recover loads the NEWEST snapshot that validates end to end, falling
// back generation by generation when the newest is corrupt (the previous
// generation is retained on disk for exactly this reason), then replays
// every journal from one generation before the chosen snapshot onward in
// ascending order (journal G stays open while snapshot G+1 commits, so
// wal-(G) can hold records newer than snapshot G+1's capture). Journal replay stops at the first torn or corrupt frame — the
// expected shape of a crash mid-append — and reports what it truncated
// instead of failing: a torn tail is bounded data loss, not an unbootable
// store. Because journal generations overlap snapshot captures (appends
// continue while a write-behind snapshot commits), replay may observe
// records already folded into the snapshot; callers make replay idempotent
// by applying records monotonically (the serving tier keys on the session
// sequence number).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// FsyncPolicy says when the journal is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncOff never syncs explicitly: appends reach the OS when the
	// user-space buffer fills. Loss after a crash is bounded only by the
	// buffer (kill -9) or the OS writeback window (power loss).
	FsyncOff FsyncPolicy = iota
	// FsyncRotation flushes and syncs at every epoch rotation: loss after
	// a crash is bounded by one epoch of acknowledged requests.
	FsyncRotation
	// FsyncAlways flushes and syncs every append before it returns: an
	// acknowledged request is durable — zero acked loss — at the cost of a
	// sync on every request.
	FsyncAlways
)

// ParseFsync maps the CLI spelling ("off", "rotation", "always") to a
// policy.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "off":
		return FsyncOff, nil
	case "rotation":
		return FsyncRotation, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want off, rotation, or always)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncRotation:
		return "rotation"
	case FsyncAlways:
		return "always"
	default:
		return "off"
	}
}

// Store is a snapshot+journal store over one FS. Methods are safe for the
// single-owner discipline the serving tier uses (one writer goroutine
// commits snapshots, one Journal handle takes appends); Recover is called
// before anything else.
type Store struct {
	fs FS
	// commitBuf is CommitSnapshot's framing buffer, reused across commits.
	commitBuf []byte
}

// NewStore wraps fs. The FS is the pluggable seam: NewDirFS for a real
// state directory, NewMemFS for tests, chaos.FaultyFS for fault drills.
func NewStore(fs FS) *Store { return &Store{fs: fs} }

// FS returns the underlying seam (tests reach through it).
func (s *Store) FS() FS { return s.fs }

const (
	snapMagic    = "SSSNAP"
	snapTrailer  = "SSEND"
	snapVersion  = 1
	snapPrefix   = "snap-"
	snapSuffix   = ".snap"
	snapTmp      = ".tmp"
	walPrefix    = "wal-"
	walSuffix    = ".wal"
	genNameWidth = 20
)

func snapName(gen uint64) string {
	return fmt.Sprintf("%s%0*d%s", snapPrefix, genNameWidth, gen, snapSuffix)
}

func walName(gen uint64) string {
	return fmt.Sprintf("%s%0*d%s", walPrefix, genNameWidth, gen, walSuffix)
}

// JournalName exposes the journal's on-disk name for tests and tooling
// that reach into a state directory from outside the package (e.g. to
// corrupt a specific generation in a fault drill).
func JournalName(gen uint64) string { return walName(gen) }

func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	gen, err := strconv.ParseUint(mid, 10, 64)
	return gen, err == nil
}

// SnapshotInfo reports what a commit wrote, for metrics.
type SnapshotInfo struct {
	Gen     uint64
	Bytes   int
	Records int
}

// CommitSnapshot atomically writes generation gen holding records: frame
// everything into a temp file, sync it, rename it over the committed name.
// On any error the temp file is removed (best effort) and every previously
// committed generation is untouched — a failed snapshot degrades
// durability, it never regresses it. A successful commit garbage-collects
// all but the two newest snapshot generations and every journal more than
// one generation older than the oldest kept snapshot (journals the replay
// rule could still name — wal-(G-1) for any recoverable snapshot G — are
// retained; anything older can never be replayed again).
//
// The file image is framed through one buffer the store keeps and reuses,
// written out whenever commitChunk bytes have gathered, so a commit
// allocates nothing proportional to the table and the store holds no copy
// of it. That rests on the single-committer discipline above: commits never
// overlap (the serving tier's boot commit precedes its writer goroutine,
// its drain commit follows the writer's exit). records is only read, and
// not retained.
func (s *Store) CommitSnapshot(gen uint64, records [][]byte) (SnapshotInfo, error) {
	tmp := snapName(gen) + snapTmp
	f, err := s.fs.Create(tmp)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("durable: snapshot %d: create: %w", gen, err)
	}
	size, err := s.writeSnapshot(f, gen, records)
	if err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("durable: snapshot %d: write: %w", gen, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("durable: snapshot %d: sync: %w", gen, err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("durable: snapshot %d: close: %w", gen, err)
	}
	if err := s.fs.Rename(tmp, snapName(gen)); err != nil {
		s.fs.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("durable: snapshot %d: commit rename: %w", gen, err)
	}
	s.gc()
	return SnapshotInfo{Gen: gen, Bytes: size, Records: len(records)}, nil
}

// commitChunk is how much framed snapshot gathers in the store's buffer
// before it is written to the file: large enough that a write call's fixed
// cost is nothing beside its copy, small enough that the buffer is no
// second copy of the table.
const commitChunk = 64 << 10

// writeSnapshot frames generation gen — header, records, trailer — into f
// through s.commitBuf and returns the bytes written.
func (s *Store) writeSnapshot(f File, gen uint64, records [][]byte) (int, error) {
	var hdr [len(snapMagic) + 1 + 16]byte
	n := copy(hdr[:], snapMagic)
	hdr[n] = snapVersion
	binary.LittleEndian.PutUint64(hdr[n+1:], gen)
	binary.LittleEndian.PutUint64(hdr[n+9:], uint64(len(records)))
	var tr [len(snapTrailer) + 8]byte
	n = copy(tr[:], snapTrailer)
	binary.LittleEndian.PutUint64(tr[n:], uint64(len(records)))

	size := 0
	buf := appendRecord(s.commitBuf[:0], hdr[:])
	for i := 0; i <= len(records); i++ {
		r := tr[:] // after the last record, the trailer is framed like one more
		if i < len(records) {
			r = records[i]
		}
		if len(buf)+frameOverhead+len(r) > commitChunk {
			if _, err := f.Write(buf); err != nil {
				return 0, err
			}
			size += len(buf)
			buf = buf[:0]
		}
		buf = appendRecord(buf, r)
	}
	s.commitBuf = buf
	if _, err := f.Write(buf); err != nil {
		return 0, err
	}
	return size + len(buf), nil
}

// gc removes all but the two newest committed snapshot generations, every
// journal more than one generation older than the oldest kept snapshot,
// and stray temp files from crashed commits. Best effort: a removal
// failure leaves extra files, not a broken store.
func (s *Store) gc() {
	names, err := s.fs.List()
	if err != nil {
		return
	}
	var snaps []uint64
	for _, n := range names {
		if gen, ok := parseGen(n, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, gen)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	var floor uint64 // oldest kept snapshot generation
	if len(snaps) > 0 {
		floor = snaps[0]
		if len(snaps) > 1 {
			floor = snaps[1]
		}
	}
	for _, n := range names {
		if strings.HasSuffix(n, snapTmp) {
			s.fs.Remove(n)
			continue
		}
		if gen, ok := parseGen(n, snapPrefix, snapSuffix); ok && gen < floor {
			s.fs.Remove(n)
		}
		// Journals are kept back to floor-1, not floor: Recover replays
		// wal-(G-1) when it falls back to snapshot G, because that journal
		// may hold records no snapshot captured. Deleting wal-(floor-1)
		// would break recovery the first time the newest snapshot fails
		// validation and the kept older generation takes over.
		if gen, ok := parseGen(n, walPrefix, walSuffix); ok && gen+1 < floor {
			s.fs.Remove(n)
		}
	}
}

// readSnapshot loads and fully validates one committed generation:
// header magic/version/gen, every record's checksum, and the trailer
// count. Any deviation makes the whole snapshot invalid — recovery falls
// back to the previous generation rather than trusting a partial read.
func (s *Store) readSnapshot(gen uint64) ([][]byte, error) {
	rc, err := s.fs.Open(snapName(gen))
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	rr := newRecordReader(rc)
	hdr, err := rr.Next()
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %d: header: %w", gen, err)
	}
	if len(hdr) != len(snapMagic)+1+16 || string(hdr[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("durable: snapshot %d: bad magic", gen)
	}
	if v := hdr[len(snapMagic)]; v != snapVersion {
		return nil, fmt.Errorf("durable: snapshot %d: unknown version %d", gen, v)
	}
	if g := binary.LittleEndian.Uint64(hdr[len(snapMagic)+1:]); g != gen {
		return nil, fmt.Errorf("durable: snapshot %d: header names generation %d", gen, g)
	}
	count := binary.LittleEndian.Uint64(hdr[len(snapMagic)+9:])
	records := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		rec, err := rr.Next()
		if err != nil {
			return nil, fmt.Errorf("durable: snapshot %d: record %d: %w", gen, i, err)
		}
		records = append(records, rec)
	}
	tr, err := rr.Next()
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %d: trailer: %w", gen, err)
	}
	if len(tr) != len(snapTrailer)+8 || string(tr[:len(snapTrailer)]) != snapTrailer ||
		binary.LittleEndian.Uint64(tr[len(snapTrailer):]) != count {
		return nil, fmt.Errorf("durable: snapshot %d: trailer mismatch", gen)
	}
	if _, err := rr.Next(); err != io.EOF {
		return nil, fmt.Errorf("durable: snapshot %d: trailing garbage", gen)
	}
	return records, nil
}

// Recovery is what Recover reconstructed and how it got there.
type Recovery struct {
	// Fresh is true when no committed snapshot validated: the store starts
	// empty (journal records, if any, still replay).
	Fresh bool
	// SnapshotGen is the generation the recovered state is based on
	// (0 when Fresh).
	SnapshotGen uint64
	// MaxGen is the highest generation named by ANY file in the store —
	// committed snapshots (valid or not) and journals alike; 0 when the
	// store holds neither. A writer resuming after recovery must start at
	// MaxGen+1: SnapshotGen alone is not safe, because a crash between a
	// rotation's journal swap and its snapshot commit leaves a journal one
	// generation AHEAD of the newest snapshot, possibly with a torn tail.
	// Appending to that file would strand every new record behind the tear
	// (replay stops at the first bad frame).
	MaxGen uint64
	// SnapshotRecords are the chosen snapshot's payloads, in write order.
	SnapshotRecords [][]byte
	// JournalRecords are every replayable journal payload with generation
	// >= SnapshotGen-1, in append order across files. May overlap the
	// snapshot — apply monotonically.
	JournalRecords [][]byte
	// SnapshotsSkipped counts committed generations that failed
	// validation and were passed over.
	SnapshotsSkipped int
	// JournalsRead counts journal files replayed.
	JournalsRead int
	// TruncatedRecords counts torn or corrupt journal frames dropped at
	// file tails (recovery keeps the valid prefix and discards the rest of
	// that file — frame boundaries are unrecoverable past a bad frame).
	TruncatedRecords int
	// TruncatedBytes is how many journal bytes those truncations discarded.
	TruncatedBytes int64
}

// Recover loads the newest valid snapshot and the journals that extend
// it. It never fails on corrupt or torn CONTENT — that is degraded data,
// reported in the Recovery — only on an unreadable store (List errors).
func (s *Store) Recover() (*Recovery, error) {
	names, err := s.fs.List()
	if err != nil {
		return nil, fmt.Errorf("durable: recover: %w", err)
	}
	var snaps, wals []uint64
	rec := &Recovery{Fresh: true}
	for _, n := range names {
		if gen, ok := parseGen(n, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, gen)
			if gen > rec.MaxGen {
				rec.MaxGen = gen
			}
		}
		if gen, ok := parseGen(n, walPrefix, walSuffix); ok {
			wals = append(wals, gen)
			if gen > rec.MaxGen {
				rec.MaxGen = gen
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })

	for _, gen := range snaps {
		records, err := s.readSnapshot(gen)
		if err != nil {
			rec.SnapshotsSkipped++
			continue
		}
		rec.Fresh = false
		rec.SnapshotGen = gen
		rec.SnapshotRecords = records
		break
	}
	for _, gen := range wals {
		// Journal gen G stays open while snapshot G+1 commits (write-behind:
		// appends continue during the commit), so wal-(SnapshotGen-1) can
		// hold records captured by NO snapshot. Only journals at least two
		// generations behind are provably folded in.
		if !rec.Fresh && gen+1 < rec.SnapshotGen {
			continue
		}
		s.replayJournal(gen, rec)
	}
	return rec, nil
}

// replayJournal appends wal-<gen>'s valid record prefix to rec, accounting
// for whatever tail it had to abandon.
func (s *Store) replayJournal(gen uint64, rec *Recovery) {
	rc, err := s.fs.Open(walName(gen))
	if err != nil {
		return
	}
	defer rc.Close()
	rec.JournalsRead++
	cr := &countingReader{r: rc}
	rr := newRecordReader(cr)
	for {
		payload, err := rr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			// Torn or corrupt frame: the valid prefix is already collected;
			// everything from this frame on is unreadable (boundaries lost).
			rec.TruncatedRecords++
			rec.TruncatedBytes += drainLen(cr)
			return
		}
		rec.JournalRecords = append(rec.JournalRecords, payload)
		cr.mark()
	}
}

// countingReader tracks how far past the last good frame a journal read
// got, so truncation can report discarded bytes.
type countingReader struct {
	r      io.Reader
	n      int64 // bytes read
	marked int64 // bytes read at the last completed record
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) mark() { c.marked = c.n }

// drainLen consumes the rest of the stream and returns how many bytes lie
// past the last completed record.
func drainLen(c *countingReader) int64 {
	io.Copy(io.Discard, c)
	return c.n - c.marked
}

// HasSnapshot reports whether any committed snapshot generation exists —
// tests use it to assert the previous generation survived a failed commit.
func (s *Store) HasSnapshot(gen uint64) bool {
	rc, err := s.fs.Open(snapName(gen))
	if err != nil {
		return false
	}
	rc.Close()
	return true
}

var (
	errClosed = errors.New("durable: journal closed")
	errTorn   = errors.New("durable: journal file torn by a partial write; appends refused until the next generation")
)
