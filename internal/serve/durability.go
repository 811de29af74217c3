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
//     the same point the stats snapshot republishes.
//
//   - The capture is a delta: its cost follows what was written since the
//     last hand-off, not the table. Every execution context keeps a list
//     of the sessions it wrote (ctxState.written): a session goes on the
//     role holder's list when delivery creates it and on its delegate's
//     list when a request moves its Seq, once per capture interval — the
//     session carries the interval it was last listed in (Session.stamp),
//     so a hot key is listed once, and a set stolen mid-interval is on
//     exactly one context's list. There is one list per execution
//     context (NumContexts), and the pool is fixed for the server's life.
//     At the cut the role holder encodes the listed sessions, and only
//     those, into one arena, empties the lists, opens the next interval and
//     hands the arena to the writer. Everything not listed is byte for
//     byte what the writer already holds, so the capture equals a full
//     encode of the live table — capture_test.go holds it to exactly that.
//
//   - The write-behind writer goroutine owns the other half: a dense table
//     of encoded sessions indexed by slot (Session.slot, assigned under the
//     role the first time a session is captured; the boot commit seeds
//     slots for everything recovery rebuilt). It folds each arena into the
//     table, reusing every slot's bytes, and commits the whole table as the
//     hand-off's generation, so a snapshot on disk is always a complete
//     table in the same format as ever, and a slow disk delays durability,
//     never requests. The hand-off slot holds one arena; if the writer has
//     not taken the previous one yet, the rotation hands over nothing
//     (ss_snapshot_skipped_total), the lists stay as they are, and the next
//     rotation hands over both intervals — with or without new requests,
//     and never more than the table, since a session is listed once until
//     it is handed off. A failed commit loses nothing either: the delta is
//     in the table and rides the next commit.
//
//   - Why the cut is still consistent with the lists written off the role:
//     the barrier is the edge from every delegate to the role holder (a
//     list, a stamp and a session are read only after it), and
//     BeginIsolation plus the lane push that carries the next delegation
//     are the edge back (the emptied lists and the new interval are seen by
//     whoever runs next). Between the two nothing but the role holder runs.
//     Boot and drain commit the whole table with encodeSessions — the
//     reference the delta path is tested against — because there the
//     writer's table does not exist yet, or no longer.
//
//   - Between rotations, every executed request appends its session's
//     post-state to an intra-epoch journal (durable.Journal). The append
//     runs on the delegate, after the backend returned and before the
//     request is acknowledged, so under Config.Fsync == FsyncAlways an
//     acknowledged response is durable by the time the client sees it.
//
//   - The journal SWAPS generations at capture time, under the role, inside
//     the same quiescent window (the pool is parked, so no append can race
//     the swap). The swap is file-system calls and the capture is memory,
//     so the rotation runs the swap on a goroutine of its own while it
//     encodes, and waits for it before the window closes. That ordering is what makes recovery's replay rule sound:
//     wal-(N-1) closes before any post-capture-N request executes, so
//     every record in it is folded into snapshot N, and a record is never
//     stranded in a journal too old for recovery to replay.
//
// Failure is a degradation, not an outage: a failed snapshot commit keeps
// the previous generation valid (counted in ss_snapshot_failures_total) and
// its sessions ride the next one, a failed journal append loses that
// record's durability (counted), and serving continues on whatever the last
// good generation holds. Recovery
// is the same shape — a torn journal tail or corrupt snapshot is
// truncated or skipped, reported on /healthz and /metrics, and the server
// boots with what validated instead of crash-looping.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/durable"
)

// ctxState is what one execution context keeps for the durability layer.
// Context i alone touches ctxs[i] while an epoch runs; the role holder
// reads and resets it in the quiescent window.
type ctxState struct {
	// written lists the sessions this context created or bumped since the
	// last hand-off, each once (see markWritten).
	written []*Session
	// rec is the scratch buffer a journal record is encoded into;
	// Journal.Append copies it.
	rec []byte
	_   [64]byte // contexts write their entries concurrently: no shared line
}

// snapDelta is one hand-off to the write-behind writer: the generation the
// rotation assigned and, back to back in arena, every listed session as
//
//	slot u32 | len u32 | record (len bytes, the session codec below)
//
// The arena is as large as what was written since the last hand-off, made by
// the rotation and dropped by the writer once folded.
type snapDelta struct {
	gen   uint64
	arena []byte
}

const deltaHeader = 8 // slot u32 | len u32

// recoveryInfo is what startup recovery rebuilt, frozen before New
// returns and exposed on /healthz and /metrics.
type recoveryInfo struct {
	sessions         int // sessions in the rebuilt table
	snapshotsSkipped int // committed generations that failed validation
	journalReplayed  int // journal records applied on top of the snapshot
	truncatedRecords int // torn/corrupt journal frames dropped at tails
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
	s.sessions = make(map[uint64]*Session, len(rec.SnapshotRecords))
	for _, payload := range rec.SnapshotRecords {
		applySessionRecord(s.sessions, payload)
	}
	for _, payload := range rec.JournalRecords {
		if applySessionRecord(s.sessions, payload) {
			s.recovered.journalReplayed++
		}
	}
	s.recovered.sessions = len(s.sessions)
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
	table := encodeSessions(s.sessions)
	if _, err := s.store.CommitSnapshot(s.snapGen, table); err != nil {
		return fmt.Errorf("serve: boot snapshot: %w", err)
	}
	// The boot records seed the writer's table: record i is slot i.
	for i, payload := range table {
		s.sessions[binary.LittleEndian.Uint64(payload)].slot = uint32(i) + 1
	}
	s.slots = uint32(len(table))
	s.stamp = 1 // a recovered session's zero stamp is no interval
	if !s.cfg.NoJournal {
		j, err := s.store.OpenJournal(s.snapGen, s.cfg.Fsync)
		if err != nil {
			return fmt.Errorf("serve: boot journal: %w", err)
		}
		s.journal.Store(j)
	}
	s.snapCh = make(chan snapDelta, 1)
	s.writerDone = make(chan struct{})
	go s.snapshotWriter(table)
	return nil
}

// Recovered reports what startup recovery rebuilt: the session count and
// how many torn or corrupt journal records were truncated to get there.
// Zero values without Config.StateFS. Safe from any goroutine (the info
// freezes before New returns).
func (s *Server) Recovered() (sessions, truncated int) {
	return s.recovered.sessions, s.recovered.truncatedRecords
}

// snapshotWriter is the write-behind writer. It owns table, the encoded
// session table indexed by slot: each hand-off is folded in — a listed
// session's record replaces its slot's bytes, reusing the slot's capacity —
// and the whole table is committed as the hand-off's generation. A failed
// commit is counted and logged; the previous generation stays the recovery
// point, the delta is already in the table and rides the next commit, and
// serving never notices.
func (s *Server) snapshotWriter(table [][]byte) {
	defer close(s.writerDone)
	for d := range s.snapCh {
		start := time.Now()
		for a := d.arena; len(a) > 0; {
			slot := binary.LittleEndian.Uint32(a)
			end := deltaHeader + int(binary.LittleEndian.Uint32(a[4:]))
			for int(slot) >= len(table) {
				table = append(table, nil)
			}
			table[slot] = append(table[slot][:0], a[deltaHeader:end]...)
			a = a[end:]
		}
		info, err := s.store.CommitSnapshot(d.gen, table)
		if err != nil {
			s.metrics.snapshotFailures.Add(1)
			s.cfg.Logf("serve: snapshot generation %d failed: %v", d.gen, err)
			continue
		}
		s.metrics.snapshots.Add(1)
		s.metrics.snapLastBytes.Store(uint64(info.Bytes))
		s.metrics.snapLastRecords.Store(uint64(info.Records))
		s.metrics.snapLastMicros.Store(uint64(time.Since(start).Microseconds()))
	}
}

// markWritten lists sess on context ctx's written list unless some context
// already listed it this capture interval. Called where a session enters
// the table (delivery, under the role) and where its Seq moves (the
// delegate running the key's set), so the lists together name exactly the
// sessions that differ from the writer's table. The stamp needs no atomics:
// a session is touched by one context at a time — per-set order, carried
// across a steal by the engine — and s.stamp moves only in the quiescent
// window.
func (s *Server) markWritten(ctx int, sess *Session) {
	if sess.stamp != s.stamp {
		sess.stamp = s.stamp
		c := &s.ctxs[ctx]
		c.written = append(c.written, sess)
	}
}

// rotateDurable is the rotation hook: called between EndIsolation and
// BeginIsolation (the consistent cut). No-op unless some session is listed
// — an idle server writes nothing. Holds the role.
func (s *Server) rotateDurable() {
	if s.store == nil {
		return
	}
	listed := 0
	for i := range s.ctxs {
		listed += len(s.ctxs[i].written)
	}
	if listed == 0 {
		return
	}
	s.snapGen++
	if !s.cfg.NoJournal {
		// The swap is file-system calls and an fsync, the capture below is
		// memory: they touch nothing in common, so the swap runs beside the
		// capture and the window stays as short as the longer of the two.
		// Both are done before this function returns — the swap is still
		// inside the quiescent window, under the role.
		var swap sync.WaitGroup
		swap.Add(1)
		go func(gen uint64) {
			defer swap.Done()
			s.swapJournal(gen)
		}(s.snapGen)
		defer swap.Wait()
	}
	if len(s.snapCh) == cap(s.snapCh) {
		// The writer has not taken the previous hand-off yet (it is
		// committing the one before). The lists stay where they are and the
		// next rotation hands over both intervals — still each session at
		// most once, so at most the table — which delays durability by
		// epochs and never loses it, with or without further requests.
		s.metrics.snapshotSkipped.Add(1)
		return
	}
	if s.cutHook != nil {
		s.cutHook(s.snapGen)
	}
	// Sized by the last hand-off's mean record; append absorbs a misjudgment.
	d := snapDelta{gen: s.snapGen, arena: make([]byte, 0, listed*s.recordHint)}
	var hdr [deltaHeader]byte // patched once the record's length is known
	for i := range s.ctxs {
		c := &s.ctxs[i]
		for _, sess := range c.written {
			if sess.slot == 0 {
				s.slots++
				sess.slot = s.slots
			}
			at := len(d.arena)
			d.arena = appendSession(append(d.arena, hdr[:]...), sess)
			binary.LittleEndian.PutUint32(d.arena[at:], sess.slot-1)
			binary.LittleEndian.PutUint32(d.arena[at+4:], uint32(len(d.arena)-at-deltaHeader))
		}
		c.written = c.written[:0]
	}
	if s.stamp++; s.stamp == 0 {
		// The interval counter wrapped: a session last listed 2^32 hand-offs
		// ago must not pass for one listed now. Once in four billion
		// hand-offs, walk the table.
		for _, sess := range s.sessions {
			sess.stamp = 0
		}
		s.stamp = 1
	}
	s.recordHint = len(d.arena)/listed + 1
	s.snapCh <- d // never blocks: only the role holder sends, and the slot was empty
}

// swapJournal opens generation gen's journal and closes its predecessor.
// Called from rotateDurable, which waits for it inside the quiescent window.
func (s *Server) swapJournal(gen uint64) {
	// Swap generations while the pool is provably parked: wal-(gen-1)
	// closes — flushing its buffer, and under FsyncRotation this close
	// IS the per-epoch fsync — before any post-capture request can
	// append. On an open failure the old journal stays in place; its
	// records are still covered by the next successful capture.
	nj, err := s.store.OpenJournal(gen, s.cfg.Fsync)
	if err != nil {
		s.metrics.journalFailures.Add(1)
		s.cfg.Logf("serve: journal generation %d: %v", gen, err)
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

// journalSession appends sess's post-request state to the current
// journal. Runs on the delegate that executed the request, BEFORE the
// request resolves — under FsyncAlways the record is on stable storage
// when the acknowledgment goes out. Append failures degrade (counted,
// logged by policy of the layer: snapshots still cover the state) rather
// than failing the request — durability is best-effort below the fsync
// contract, the request's answer is not.
func (s *Server) journalSession(ctx int, sess *Session) {
	j := s.journal.Load()
	if j == nil {
		return
	}
	c := &s.ctxs[ctx]
	c.rec = appendSession(c.rec[:0], sess)
	if err := j.Append(c.rec); err != nil {
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

func sessionSize(sess *Session) int {
	n := 8 + 8 + 4 + len(sess.Key) + 4
	for k, v := range sess.Data {
		n += 8 + len(k) + len(v)
	}
	return n
}

func encodeSession(sess *Session) []byte {
	return appendSession(make([]byte, 0, sessionSize(sess)), sess)
}

// appendSession appends sess's record to buf, whatever buf holds, and
// returns the extended slice: encodeSession for a caller that reuses its
// buffer.
func appendSession(buf []byte, sess *Session) []byte {
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
	size := 0
	for _, sess := range sessions {
		size += sessionSize(sess)
	}
	// One allocation holds every record; each is capped at its own length,
	// so appending to one reallocates it and never runs into its neighbour.
	arena := make([]byte, 0, size)
	records := make([][]byte, 0, len(sessions))
	for _, sess := range sessions {
		at := len(arena)
		arena = appendSession(arena, sess)
		records = append(records, arena[at:len(arena):len(arena)])
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
	if npairs > len(payload)/8 {
		return nil, false // a pair is two length prefixes at least: the count cannot be right
	}
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
