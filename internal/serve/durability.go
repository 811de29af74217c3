package serve

// Durable sessions. When Config.StateFS is set, the serving tier persists
// its session table (key → sequence counter + per-key KV) and rebuilds it
// at startup, so a crash or restart loses at most a bounded window of
// session history instead of every session on the instance.
//
// The design rides the machinery the tier already has:
//
//   - The EndIsolation barrier at every epoch rotation proves the delegate
//     pool quiescent — no handler is mutating any Session — so the window
//     between EndIsolation and BeginIsolation is a consistent cut across
//     every key at once. Session capture happens there, under the role, at
//     the same point the stats snapshot republishes. The rotation only
//     ENCODES (cost proportional to live state); committing the snapshot
//     to storage happens write-behind on a dedicated writer goroutine with
//     a latest-wins pending slot, so a slow disk delays durability, never
//     requests.
//
//   - Between rotations, every executed request appends its session's
//     post-state to an intra-epoch journal (durable.Journal). The append
//     runs on the delegate, after the backend returned and before the
//     request is acknowledged, so under Config.Fsync == FsyncAlways an
//     acknowledged response is durable by the time the client sees it.
//
//   - The journal SWAPS generations at capture time, under the role, inside
//     the same quiescent window (the pool is parked, so no append can race
//     the swap). That ordering is what makes recovery's replay rule sound:
//     wal-(N-1) closes before any post-capture-N request executes, so
//     every record in it is folded into snapshot N, and a record is never
//     stranded in a journal too old for recovery to replay.
//
// Failure is a degradation, not an outage: a failed snapshot commit keeps
// the previous generation valid (counted in ss_snapshot_failures_total),
// a failed journal append loses that record's durability (counted), and
// serving continues on whatever the last good generation holds. Recovery
// is the same shape — a torn journal tail or corrupt snapshot is
// truncated or skipped, reported on /healthz and /metrics, and the server
// boots with what validated instead of crash-looping.

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/durable"
)

// snapCapture is one epoch-consistent capture handed to the write-behind
// writer: the generation the rotation assigned and every session encoded.
type snapCapture struct {
	gen     uint64
	records [][]byte
}

// recoveryInfo is what startup recovery rebuilt, frozen before New
// returns and exposed on /healthz and /metrics.
type recoveryInfo struct {
	sessions         int // sessions in the rebuilt table
	snapshotGen      uint64
	snapshotsSkipped int // committed generations that failed validation
	journalReplayed  int // journal records applied on top of the snapshot
	truncatedRecords int // torn/corrupt journal frames dropped at tails
	decodeFailures   int // records whose payload failed to decode
}

// initDurability runs recovery and opens the first generation. Called
// from New before anything can take the role — the session table must be complete
// before admission opens, and a storage dir that cannot take a boot
// snapshot is a refused start, not a silent in-memory fallback.
func (s *Server) initDurability() error {
	s.store = durable.NewStore(s.cfg.StateFS)
	rec, err := s.store.Recover()
	if err != nil {
		return fmt.Errorf("serve: recover session state: %w", err)
	}
	for _, payload := range rec.SnapshotRecords {
		if !applySessionRecord(s.sessions, payload) {
			s.recovered.decodeFailures++
		}
	}
	for _, payload := range rec.JournalRecords {
		if applySessionRecord(s.sessions, payload) {
			s.recovered.journalReplayed++
		} else {
			s.recovered.decodeFailures++
		}
	}
	s.recovered.sessions = len(s.sessions)
	s.recovered.snapshotGen = rec.SnapshotGen
	s.recovered.snapshotsSkipped = rec.SnapshotsSkipped
	s.recovered.truncatedRecords = rec.TruncatedRecords

	// Boot commit: fold the recovered table (journal replay included) into
	// a fresh generation synchronously, so the journals that fed recovery
	// are no longer load-bearing and this boot's journal starts empty.
	// The generation comes from MaxGen — the highest ANY on-disk file
	// names, journals included — not SnapshotGen: a crash between a
	// rotation's journal swap and its snapshot commit leaves wal-(G+1) on
	// disk ahead of snapshot G, possibly torn mid-frame. Booting at G+1
	// would re-open that file and strand every new acked record behind the
	// tear (replay stops at the first bad frame), so the boot journal must
	// start strictly above every existing name.
	s.snapGen = rec.MaxGen + 1
	if _, err := s.store.CommitSnapshot(s.snapGen, encodeSessions(s.sessions)); err != nil {
		return fmt.Errorf("serve: boot snapshot: %w", err)
	}
	if !s.cfg.NoJournal {
		j, err := s.store.OpenJournal(s.snapGen, s.cfg.Fsync)
		if err != nil {
			return fmt.Errorf("serve: boot journal: %w", err)
		}
		s.journal.Store(j)
	}
	s.snapCh = make(chan snapCapture, 1)
	s.writerDone = make(chan struct{})
	go s.snapshotWriter()
	return nil
}

// Recovered reports what startup recovery rebuilt: the session count and
// how many torn or corrupt journal records were truncated to get there.
// Zero values without Config.StateFS. Safe from any goroutine (the info
// freezes before New returns).
func (s *Server) Recovered() (sessions, truncated int) {
	return s.recovered.sessions, s.recovered.truncatedRecords
}

// snapshotWriter is the write-behind committer: it drains the pending
// slot and commits captures in order. A failed commit is counted and
// logged; the previous generation stays the recovery point and serving
// never notices.
func (s *Server) snapshotWriter() {
	defer close(s.writerDone)
	for cap := range s.snapCh {
		start := time.Now()
		info, err := s.store.CommitSnapshot(cap.gen, cap.records)
		if err != nil {
			s.metrics.snapshotFailures.Add(1)
			s.cfg.Logf("serve: snapshot generation %d failed: %v", cap.gen, err)
			continue
		}
		s.metrics.snapshots.Add(1)
		s.metrics.snapLastBytes.Store(uint64(info.Bytes))
		s.metrics.snapLastRecords.Store(uint64(info.Records))
		s.metrics.snapLastMicros.Store(uint64(time.Since(start).Microseconds()))
	}
}

// rotateDurable is the rotation hook: called between EndIsolation and
// BeginIsolation (the consistent cut). No-op unless a request executed
// since the last capture — an idle server writes nothing. Holds the role.
func (s *Server) rotateDurable() {
	if s.store == nil || !s.dirty.Swap(false) {
		return
	}
	s.snapGen++
	records := encodeSessions(s.sessions)
	if !s.cfg.NoJournal {
		// Swap generations while the pool is provably parked: wal-(gen-1)
		// closes — flushing its buffer, and under FsyncRotation this close
		// IS the per-epoch fsync — before any post-capture request can
		// append. On an open failure the old journal stays in place; its
		// records are still covered by the next successful capture.
		nj, err := s.store.OpenJournal(s.snapGen, s.cfg.Fsync)
		if err != nil {
			s.metrics.journalFailures.Add(1)
			s.cfg.Logf("serve: journal generation %d: %v", s.snapGen, err)
			// The generation cannot swap, but the policy's per-epoch fsync
			// must still happen: sync the old journal in place so this
			// epoch's acked records meet the <=1-epoch loss bound even
			// while new-file creation is failing.
			if s.cfg.Fsync == durable.FsyncRotation {
				if old := s.journal.Load(); old != nil {
					if serr := old.Sync(); serr != nil {
						s.metrics.journalFailures.Add(1)
					} else {
						s.metrics.journalSyncs.Add(1)
					}
				}
			}
		} else {
			if old := s.journal.Swap(nj); old != nil {
				if err := old.Close(); err != nil {
					s.metrics.journalFailures.Add(1)
				} else if s.cfg.Fsync != durable.FsyncOff {
					s.metrics.journalSyncs.Add(1)
				}
			}
		}
	}
	select {
	case s.snapCh <- snapCapture{gen: s.snapGen, records: records}:
	default:
		// The writer is still committing an earlier capture. Latest-wins
		// would be ideal but dropping is equivalent here: the NEXT rotation
		// recaptures strictly newer state (the dirty bit re-arms on the
		// first post-capture request), so a skip delays durability by
		// epochs, never loses it.
		s.metrics.snapshotSkipped.Add(1)
	}
}

// journalSession appends sess's post-request state to the current
// journal. Runs on the delegate that executed the request, BEFORE the
// request resolves — under FsyncAlways the record is on stable storage
// when the acknowledgment goes out. Append failures degrade (counted,
// logged by policy of the layer: snapshots still cover the state) rather
// than failing the request — durability is best-effort below the fsync
// contract, the request's answer is not.
func (s *Server) journalSession(sess *Session) {
	j := s.journal.Load()
	if j == nil {
		return
	}
	if err := j.Append(encodeSession(sess)); err != nil {
		s.metrics.journalFailures.Add(1)
		return
	}
	s.metrics.journalRecords.Add(1)
	if s.cfg.Fsync == durable.FsyncAlways {
		s.metrics.journalSyncs.Add(1)
	}
}

// drainDurable is the shutdown path: stop the writer, then commit a final
// synchronous snapshot of the drained (quiescent, post-barrier) table and
// close the journal. A clean drain is therefore lossless under every
// fsync policy. Holds the role.
func (s *Server) drainDurable() {
	if s.store == nil {
		return
	}
	close(s.snapCh)
	<-s.writerDone
	s.snapGen++
	if _, err := s.store.CommitSnapshot(s.snapGen, encodeSessions(s.sessions)); err != nil {
		s.metrics.snapshotFailures.Add(1)
		s.cfg.Logf("serve: final snapshot generation %d failed: %v", s.snapGen, err)
	} else {
		s.metrics.snapshots.Add(1)
	}
	if j := s.journal.Swap(nil); j != nil {
		j.Close()
	}
}

// --- session record codec ---
//
// One record is one session's full state:
//
//	set u64 | seq u64 | key (u32 len + bytes) | npairs u32 | (k, v)*
//
// little-endian throughout. Records are self-contained and replayed
// monotonically: a record applies iff its Seq is >= the table's current
// Seq for that set, which makes the journal/snapshot overlap harmless —
// replaying a record the snapshot already folded in is a no-op shaped
// like an idempotent write.

func appendLenBytes(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func encodeSession(sess *Session) []byte {
	n := 8 + 8 + 4 + len(sess.Key) + 4
	for k, v := range sess.Data {
		n += 8 + len(k) + len(v)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint64(buf, sess.Set)
	buf = binary.LittleEndian.AppendUint64(buf, sess.Seq)
	buf = appendLenBytes(buf, sess.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sess.Data)))
	for k, v := range sess.Data {
		buf = appendLenBytes(buf, k)
		buf = appendLenBytes(buf, v)
	}
	return buf
}

// encodeSessions encodes the whole table, one record per session. The
// caller holds the role (the table is role-private).
func encodeSessions(sessions map[uint64]*Session) [][]byte {
	records := make([][]byte, 0, len(sessions))
	for _, sess := range sessions {
		records = append(records, encodeSession(sess))
	}
	return records
}

func decodeSession(payload []byte) (*Session, bool) {
	takeU64 := func() (uint64, bool) {
		if len(payload) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
		return v, true
	}
	takeStr := func() (string, bool) {
		if len(payload) < 4 {
			return "", false
		}
		n := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		if n < 0 || len(payload) < n {
			return "", false
		}
		v := string(payload[:n])
		payload = payload[n:]
		return v, true
	}
	set, ok := takeU64()
	if !ok {
		return nil, false
	}
	seq, ok := takeU64()
	if !ok {
		return nil, false
	}
	key, ok := takeStr()
	if !ok {
		return nil, false
	}
	if len(payload) < 4 {
		return nil, false
	}
	npairs := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	sess := &Session{Key: key, Set: set, Seq: seq, Data: make(map[string]string, npairs)}
	for i := 0; i < npairs; i++ {
		k, ok := takeStr()
		if !ok {
			return nil, false
		}
		v, ok := takeStr()
		if !ok {
			return nil, false
		}
		sess.Data[k] = v
	}
	if len(payload) != 0 {
		return nil, false // trailing garbage: framed length disagreed with content
	}
	return sess, true
}

// applySessionRecord decodes payload and applies it to the table
// monotonically. Reports false only on a decode failure (a stale record
// is applied-as-no-op, which is success).
func applySessionRecord(sessions map[uint64]*Session, payload []byte) bool {
	sess, ok := decodeSession(payload)
	if !ok {
		return false
	}
	if cur := sessions[sess.Set]; cur != nil && sess.Seq < cur.Seq {
		return true
	}
	sessions[sess.Set] = sess
	return true
}
