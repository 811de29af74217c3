package serve

import (
	"bytes"
	"maps"
	"testing"
)

// FuzzSessionCodec: decodeSession never panics whatever it is given; a
// session survives encode → decode; and appendSession, the encoder that
// reuses its caller's buffer, produces encodeSession's record after
// whatever the buffer already held. (Pairs are encoded in map order, so two
// encodings of a session with several pairs agree in length and meaning,
// and byte for byte only up to one pair.)
func FuzzSessionCodec(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(encodeSession(&Session{Key: "k", Set: 1, Seq: 2, Data: map[string]string{}}), []byte("left over"))
	f.Add(encodeSession(&Session{Key: "alice", Set: 1 << 63, Seq: 9, Data: map[string]string{"a": "b", "": "x"}}), []byte{0xff})
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff"), []byte{})
	f.Fuzz(func(t *testing.T, payload, prefix []byte) {
		sess, ok := decodeSession(payload)
		if !ok {
			return
		}
		enc := encodeSession(sess)
		same := func(what string, record []byte) {
			back, ok := decodeSession(record)
			if !ok {
				t.Fatalf("%s of %+v does not decode: %x", what, sess, record)
			}
			if back.Key != sess.Key || back.Set != sess.Set || back.Seq != sess.Seq || !maps.Equal(back.Data, sess.Data) {
				t.Fatalf("%s: %+v came back as %+v", what, sess, back)
			}
		}
		same("encodeSession", enc)

		out := appendSession(bytes.Clone(prefix), sess)
		if !bytes.HasPrefix(out, prefix) {
			t.Fatalf("appendSession rewrote the %d bytes it was appending to", len(prefix))
		}
		record := out[len(prefix):]
		if len(record) != len(enc) || (len(sess.Data) <= 1 && !bytes.Equal(record, enc)) {
			t.Fatalf("appendSession after %x wrote %x, encodeSession %x", prefix, record, enc)
		}
		same("appendSession", record)
	})
}
