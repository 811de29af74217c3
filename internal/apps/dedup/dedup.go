// Package dedup reproduces the PARSEC dedup benchmark (Table 2):
// fingerprint-based compression of a data stream. The kernel pipeline is
// the PARSEC one: content-defined chunking, SHA-1 fingerprinting, duplicate
// elimination against a global fingerprint table, DEFLATE compression of
// unique chunks, and an ordered archive writer.
//
// Output equality across implementations is exact: the archive format is
// canonical (unique chunks appear compressed at first occurrence in stream
// order; duplicates are back-references by unique-chunk index).
package dedup

import (
	"bytes"
	"compress/flate"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/workload"
)

// Input is the raw stream.
type Input struct {
	Data []byte
}

// Output is the archive plus bookkeeping counters used by tests and the
// harness report.
type Output struct {
	Archive []byte
	Chunks  int
	Unique  int
}

// Load generates the input for a size class.
func Load(size workload.SizeClass) *Input {
	return &Input{Data: workload.GenerateDedupStream(workload.DedupSize(size))}
}

// fingerprint is a SHA-1 digest.
type fingerprint [sha1.Size]byte

// writers recycles DEFLATE writers across chunks: a writer carries about
// 1 MB of tables, so one per chunk per compressing context is the app's
// largest allocation. A Reset writer is equivalent to a new one (the
// compress/flate contract), so the output does not depend on reuse.
var writers = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, flate.DefaultCompression)
	if err != nil {
		panic(err) // impossible: level is valid
	}
	return w
}}

// compress DEFLATEs a chunk at the default level; the result is
// deterministic for a given input.
func compress(data []byte) []byte {
	var buf bytes.Buffer
	w := writers.Get().(*flate.Writer)
	defer writers.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(data); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// decompress inflates one compressed record (tests and Decode).
func decompress(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Archive record tags.
const (
	tagUnique = byte('U') // followed by uint32 length + compressed bytes
	tagDup    = byte('D') // followed by uint32 index of referenced unique chunk
)

// recordHeader is a record's size less its compressed bytes: tag + uint32.
const recordHeader = 5

// appendUnique encodes a unique-chunk record.
func appendUnique(archive []byte, compressed []byte) []byte {
	archive = append(archive, tagUnique)
	archive = binary.BigEndian.AppendUint32(archive, uint32(len(compressed)))
	return append(archive, compressed...)
}

// appendDup encodes a duplicate reference record.
func appendDup(archive []byte, uniqueIndex int) []byte {
	archive = append(archive, tagDup)
	return binary.BigEndian.AppendUint32(archive, uint32(uniqueIndex))
}

// Decode reconstructs the original stream from an archive — the round-trip
// validator used in tests.
func Decode(archive []byte) ([]byte, error) {
	var out []byte
	var uniques [][]byte
	for len(archive) > 0 {
		tag := archive[0]
		archive = archive[1:]
		if len(archive) < 4 {
			return nil, fmt.Errorf("dedup: truncated record header")
		}
		v := binary.BigEndian.Uint32(archive)
		archive = archive[4:]
		switch tag {
		case tagUnique:
			if int(v) > len(archive) {
				return nil, fmt.Errorf("dedup: truncated unique record")
			}
			raw, err := decompress(archive[:v])
			if err != nil {
				return nil, fmt.Errorf("dedup: corrupt chunk: %w", err)
			}
			uniques = append(uniques, raw)
			out = append(out, raw...)
			archive = archive[v:]
		case tagDup:
			if int(v) >= len(uniques) {
				return nil, fmt.Errorf("dedup: dangling duplicate reference %d", v)
			}
			out = append(out, uniques[v]...)
		default:
			return nil, fmt.Errorf("dedup: unknown record tag %q", tag)
		}
	}
	return out, nil
}
