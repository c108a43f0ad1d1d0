package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frame prefixes a body with its big-endian length, as WriteFrame does.
func frame(body string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

// FuzzReadFrame feeds ReadFrame the bytes a peer controls. It must
// never panic, and a frame it accepts must survive being written and
// read again: the second encoding equals the first, and so does every
// header field.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame(`{"type":"publish","id":7,"payload":{"stream":"weather","tuples":[{"values":[{"t":"double","v":1.5}]}]}}`))
	f.Add(frame(`{"type":"publish.err","id":1,"error":"no such stream","code":"not_found"}`))
	f.Add(frame(`{"type":"x","payload":null}`))
	f.Add(frame(`{"type":"<é>","payload":" [1, 2 ,\"<\"] "}`))
	f.Add(frame(`not json`))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteFrame(&first, m); err != nil {
			t.Fatalf("accepted frame %+v does not encode: %v", m, err)
		}
		m2, err := ReadFrame(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame %q does not decode: %v", first.Bytes(), err)
		}
		if m2.Type != m.Type || m2.ID != m.ID || m2.Error != m.Error || m2.Code != m.Code {
			t.Fatalf("header changed in round trip: %+v became %+v", m, m2)
		}
		var second bytes.Buffer
		if err := WriteFrame(&second, m2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not stable: %q then %q", first.Bytes(), second.Bytes())
		}
	})
}
