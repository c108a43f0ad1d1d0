package stream

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzTupleJSON decodes a tuple the way a data server decodes a
// publish request's tuples from a client. It must never panic, and a
// tuple it accepts must round-trip: encoded and decoded again, it is
// the same tuple.
func FuzzTupleJSON(f *testing.F) {
	seed := NewTuple(IntValue(-3), DoubleValue(2.5), StringValue("NE <&>"), BoolValue(true), TimestampMillis(1700000000000), Null)
	seed.ArrivalMillis, seed.Seq = 42, 7
	raw, err := json.Marshal(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"values":[]}`))
	f.Add([]byte(`{"values":null,"seq":18446744073709551615}`))
	f.Add([]byte(`{"values":[{"t":"int","v":1.5}]}`))
	f.Add([]byte(`{"values":[{"t":"bogus"}]}`))
	f.Add([]byte(`{"values":[{"t":"string","v":"\ud800"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tp Tuple
		if err := json.Unmarshal(data, &tp); err != nil {
			return
		}
		out, err := json.Marshal(tp)
		if err != nil {
			t.Fatalf("accepted tuple %+v does not encode: %v", tp, err)
		}
		var back Tuple
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-encoded tuple %s does not decode: %v", out, err)
		}
		if !reflect.DeepEqual(tp, back) {
			t.Fatalf("round trip changed the tuple: %+v became %+v (%s)", tp, back, out)
		}
	})
}
