package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// --- record framing ---

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		[]byte("x"),
		[]byte("hello, frames"),
		bytes.Repeat([]byte{0xab}, 100_000),
	}
	var buf []byte
	for _, p := range payloads {
		buf = appendRecord(buf, p)
	}
	rr := newRecordReader(bytes.NewReader(buf))
	for i, want := range payloads {
		got, err := rr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: payload mismatch (%d bytes vs %d)", i, len(got), len(want))
		}
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestRecordTornAndCorrupt(t *testing.T) {
	full := appendRecord(nil, []byte("first"))
	full = appendRecord(full, []byte("second record, somewhat longer"))

	// Torn mid-header of the second record.
	rr := newRecordReader(bytes.NewReader(full[:len(appendRecord(nil, []byte("first")))+3]))
	if _, err := rr.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, err := rr.Next(); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn header: want ErrTorn, got %v", err)
	}

	// Torn mid-payload.
	rr = newRecordReader(bytes.NewReader(full[:len(full)-5]))
	rr.Next()
	if _, err := rr.Next(); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn payload: want ErrTorn, got %v", err)
	}

	// Checksum corruption in the payload.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0xff
	rr = newRecordReader(bytes.NewReader(bad))
	rr.Next()
	if _, err := rr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit rot: want ErrCorrupt, got %v", err)
	}

	// Garbage length prefix.
	huge := make([]byte, 8)
	huge[3] = 0xff // length ~4e9 > maxRecordLen
	rr = newRecordReader(bytes.NewReader(huge))
	if _, err := rr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: want ErrCorrupt, got %v", err)
	}
}

// --- snapshots ---

func recs(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestSnapshotCommitAndRecover(t *testing.T) {
	for _, newFS := range []struct {
		name string
		mk   func(t *testing.T) FS
	}{
		{"mem", func(t *testing.T) FS { return NewMemFS() }},
		{"dir", func(t *testing.T) FS {
			fs, err := NewDirFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	} {
		t.Run(newFS.name, func(t *testing.T) {
			st := NewStore(newFS.mk(t))
			info, err := st.CommitSnapshot(3, recs("alpha", "beta"))
			if err != nil {
				t.Fatal(err)
			}
			if info.Gen != 3 || info.Records != 2 || info.Bytes == 0 {
				t.Fatalf("info = %+v", info)
			}
			rec, err := st.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Fresh || rec.SnapshotGen != 3 || len(rec.SnapshotRecords) != 2 {
				t.Fatalf("recovery = %+v", rec)
			}
			if string(rec.SnapshotRecords[0]) != "alpha" || string(rec.SnapshotRecords[1]) != "beta" {
				t.Fatalf("payloads = %q", rec.SnapshotRecords)
			}
		})
	}
}

// writeSizesFS records the size of every write to a snapshot temp file.
type writeSizesFS struct {
	FS
	sizes []int
}

type sizedFile struct {
	File
	fs *writeSizesFS
}

func (f sizedFile) Write(p []byte) (int, error) {
	f.fs.sizes = append(f.fs.sizes, len(p))
	return f.File.Write(p)
}

func (w *writeSizesFS) Create(name string) (File, error) {
	f, err := w.FS.Create(name)
	return sizedFile{f, w}, err
}

// TestCommitSnapshotFramesThroughOneReusedBuffer: a snapshot larger than
// commitChunk goes out in chunk-sized writes through a buffer the store
// keeps — a record larger than a chunk included — the file is the one a
// single write would have produced, and the second commit allocates no
// second buffer.
func TestCommitSnapshotFramesThroughOneReusedBuffer(t *testing.T) {
	fs := &writeSizesFS{FS: NewMemFS()}
	st := NewStore(fs)
	var records [][]byte
	for i := 0; i < 5000; i++ {
		records = append(records, []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'x'}, i%90))))
	}
	records = append(records, bytes.Repeat([]byte{'L'}, commitChunk+1234), []byte("after the large one"))
	want := len(appendRecord(nil, make([]byte, len(snapMagic)+1+16))) + len(appendRecord(nil, make([]byte, len(snapTrailer)+8)))
	for _, r := range records {
		want += frameOverhead + len(r)
	}

	info, err := st.CommitSnapshot(1, records)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range fs.sizes {
		total += n
		if n > commitChunk && n != frameOverhead+commitChunk+1234 {
			t.Errorf("write %d is %d bytes: over commitChunk (%d) and not the one oversized record", i, n, commitChunk)
		}
	}
	if len(fs.sizes) < 4 || total != want || info.Bytes != want {
		t.Fatalf("%d writes, %d bytes, info %+v; want several writes and %d bytes", len(fs.sizes), total, info, want)
	}
	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotGen != 1 || len(rec.SnapshotRecords) != len(records) {
		t.Fatalf("recovered generation %d with %d records, want 1 with %d", rec.SnapshotGen, len(rec.SnapshotRecords), len(records))
	}
	for i := range records {
		if !bytes.Equal(rec.SnapshotRecords[i], records[i]) {
			t.Fatalf("record %d differs after recovery", i)
		}
	}

	buf := &st.commitBuf[:1][0]
	if _, err := st.CommitSnapshot(2, records[:100]); err != nil {
		t.Fatal(err)
	}
	if &st.commitBuf[:1][0] != buf {
		t.Error("the second commit framed into a new buffer")
	}
	if rec, err := st.Recover(); err != nil || rec.SnapshotGen != 2 || len(rec.SnapshotRecords) != 100 {
		t.Fatalf("after the second commit: %+v, %v", rec, err)
	}
}

func TestRecoverFallsBackPastCorruptSnapshot(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	if _, err := st.CommitSnapshot(1, recs("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CommitSnapshot(2, recs("new")); err != nil {
		t.Fatal(err)
	}
	// Bit-rot the newest committed generation mid-file.
	fs.Corrupt(snapName(2), fs.Len(snapName(2))/2)

	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fresh || rec.SnapshotGen != 1 || rec.SnapshotsSkipped != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	if string(rec.SnapshotRecords[0]) != "old" {
		t.Fatalf("fell back to %q", rec.SnapshotRecords[0])
	}
}

func TestRecoverFreshStore(t *testing.T) {
	rec, err := NewStore(NewMemFS()).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Fresh || rec.SnapshotGen != 0 || rec.MaxGen != 0 || len(rec.SnapshotRecords) != 0 || len(rec.JournalRecords) != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
}

func TestSnapshotGCKeepsTwoGenerations(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	for gen := uint64(1); gen <= 4; gen++ {
		j, err := st.OpenJournal(gen, FsyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		j.Append([]byte(fmt.Sprintf("wal-%d", gen)))
		j.Close()
		if _, err := st.CommitSnapshot(gen, recs(fmt.Sprintf("snap-%d", gen))); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := fs.List()
	var snaps, wals int
	for _, n := range names {
		if _, ok := parseGen(n, snapPrefix, snapSuffix); ok {
			snaps++
		}
		if _, ok := parseGen(n, walPrefix, walSuffix); ok {
			wals++
		}
	}
	if snaps != 2 {
		t.Fatalf("want 2 kept snapshots, have %d (%v)", snaps, names)
	}
	if !st.HasSnapshot(3) || !st.HasSnapshot(4) || st.HasSnapshot(2) {
		t.Fatalf("kept the wrong generations: %v", names)
	}
	// Journals survive back to floor-1 (gens 2, 3, 4): if snapshot 4 ever
	// fails validation and recovery falls back to snapshot 3, the replay
	// contract needs wal-2.
	if wals != 3 {
		t.Fatalf("want 3 kept journals (floor-1 onward), have %d (%v)", wals, names)
	}
}

func TestRecoverMaxGenSeesJournalAheadOfSnapshot(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	if _, err := st.CommitSnapshot(1, recs("state")); err != nil {
		t.Fatal(err)
	}
	// The crash shape the boot generation must survive: a rotation swapped
	// the journal to gen 2, then the process died before snapshot 2
	// committed — wal-2 exists with no matching snapshot, torn mid-frame.
	j, err := st.OpenJournal(2, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	j.Append([]byte("acked"))
	j.Close()
	f, err := fs.Append(walName(2))
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad}) // torn frame header
	f.Close()

	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotGen != 1 {
		t.Fatalf("SnapshotGen = %d, want 1", rec.SnapshotGen)
	}
	// MaxGen must count the orphaned journal, so the next writer opens
	// wal-3 instead of appending behind wal-2's tear.
	if rec.MaxGen != 2 {
		t.Fatalf("MaxGen = %d, want 2 (journal ahead of snapshot)", rec.MaxGen)
	}
	if len(rec.JournalRecords) != 1 || string(rec.JournalRecords[0]) != "acked" {
		t.Fatalf("journal replay = %q", rec.JournalRecords)
	}
	if rec.TruncatedRecords != 1 {
		t.Fatalf("truncated %d, want 1", rec.TruncatedRecords)
	}
}

// --- journal ---

func TestJournalFsyncLossBounds(t *testing.T) {
	// The loss model under kill -9: what the journal flushed to the FS
	// survives; the user-space buffer dies. Each policy bounds the loss
	// differently, and "crashing" is simply abandoning the handle
	// without Close.
	t.Run("always", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs)
		j, _ := st.OpenJournal(1, FsyncAlways)
		for i := 0; i < 10; i++ {
			if err := j.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// crash: no Close, no Sync
		rec, _ := st.Recover()
		if len(rec.JournalRecords) != 10 {
			t.Fatalf("always: want all 10 records durable, got %d", len(rec.JournalRecords))
		}
	})
	t.Run("rotation", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs)
		j, _ := st.OpenJournal(1, FsyncRotation)
		for i := 0; i < 6; i++ {
			j.Append([]byte(fmt.Sprintf("r%d", i)))
		}
		if err := j.Sync(); err != nil { // the rotation boundary
			t.Fatal(err)
		}
		for i := 6; i < 10; i++ {
			j.Append([]byte(fmt.Sprintf("r%d", i)))
		}
		// crash: the 4 post-rotation records were buffered, not flushed
		rec, _ := st.Recover()
		if len(rec.JournalRecords) != 6 {
			t.Fatalf("rotation: want exactly the 6 synced records, got %d", len(rec.JournalRecords))
		}
	})
	t.Run("off", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs)
		j, _ := st.OpenJournal(1, FsyncOff)
		for i := 0; i < 10; i++ {
			j.Append([]byte(fmt.Sprintf("r%d", i)))
		}
		// crash: everything fit the buffer; nothing reached the FS
		rec, _ := st.Recover()
		if len(rec.JournalRecords) != 0 {
			t.Fatalf("off: want 0 durable records, got %d", len(rec.JournalRecords))
		}
	})
}

func TestJournalTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	j, _ := st.OpenJournal(1, FsyncAlways)
	j.Append([]byte("good-1"))
	j.Append([]byte("good-2"))
	j.Close()
	// Simulate a crash mid-append: raw partial frame at the tail.
	f, _ := fs.Append(walName(1))
	f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}) // claims 64 bytes, delivers none
	f.Close()

	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.JournalRecords) != 2 {
		t.Fatalf("want the 2-record valid prefix, got %d", len(rec.JournalRecords))
	}
	if rec.TruncatedRecords != 1 || rec.TruncatedBytes != 6 {
		t.Fatalf("truncation accounting = %d records, %d bytes", rec.TruncatedRecords, rec.TruncatedBytes)
	}
}

func TestJournalCorruptMidFileKeepsPrefix(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	j, _ := st.OpenJournal(1, FsyncAlways)
	for i := 0; i < 5; i++ {
		j.Append([]byte(fmt.Sprintf("rec-%d", i)))
	}
	j.Close()
	// Flip a byte inside record 3's payload: records 0..2 replay, the
	// rest of the file is unreadable past the bad frame.
	off := 3*(frameOverhead+len("rec-0")) + frameOverhead + 2
	fs.Corrupt(walName(1), off)

	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.JournalRecords) != 3 {
		t.Fatalf("want 3-record prefix, got %d", len(rec.JournalRecords))
	}
	if rec.TruncatedRecords != 1 || rec.TruncatedBytes == 0 {
		t.Fatalf("truncation accounting = %+v", rec)
	}
}

func TestJournalReplayAcrossGenerations(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	// Generation 1: snapshot + journal; generation 2 snapshot commits but
	// journal 1 still holds post-capture records (the write-behind overlap).
	if _, err := st.CommitSnapshot(1, recs("base")); err != nil {
		t.Fatal(err)
	}
	j1, _ := st.OpenJournal(1, FsyncAlways)
	j1.Append([]byte("pre-capture"))
	if _, err := st.CommitSnapshot(2, recs("base2")); err != nil {
		t.Fatal(err)
	}
	j1.Append([]byte("overlap")) // landed in wal-1 after snap-2's capture
	j1.Close()
	j2, _ := st.OpenJournal(2, FsyncAlways)
	j2.Append([]byte("post-swap"))
	j2.Close()

	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotGen != 2 {
		t.Fatalf("snapshot gen %d", rec.SnapshotGen)
	}
	// wal-1 (gen >= kept floor) and wal-2 both replay, in order.
	want := []string{"pre-capture", "overlap", "post-swap"}
	if len(rec.JournalRecords) != len(want) {
		t.Fatalf("journal records = %d, want %d", len(rec.JournalRecords), len(want))
	}
	for i, w := range want {
		if string(rec.JournalRecords[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, rec.JournalRecords[i], w)
		}
	}
}

func TestJournalConcurrentAppends(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	j, _ := st.OpenJournal(1, FsyncRotation)
	const (
		goroutines = 8
		each       = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.JournalRecords) != goroutines*each {
		t.Fatalf("want %d records, got %d (no record torn or lost under concurrency)",
			goroutines*each, len(rec.JournalRecords))
	}
}

func TestParseFsync(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"off", FsyncOff, true},
		{"rotation", FsyncRotation, true},
		{"always", FsyncAlways, true},
		{"sometimes", 0, false},
		{"", 0, false},
	} {
		got, err := ParseFsync(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseFsync(%q) = %v, %v", tc.in, got, err)
		}
	}
	for p, s := range map[FsyncPolicy]string{FsyncOff: "off", FsyncRotation: "rotation", FsyncAlways: "always"} {
		if p.String() != s {
			t.Errorf("String(%d) = %q", p, p.String())
		}
	}
}
