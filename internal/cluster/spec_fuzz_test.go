package cluster

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeSpec feeds arbitrary bytes to the spec decoder, the parser of
// the system descriptions clients send the daemon. It must never panic, and
// a spec it accepts must re-encode canonically: the encoding decodes to an
// equal System and re-encodes to the same bytes. The seed corpus under
// testdata/fuzz/FuzzDecodeSpec holds the four preset specs.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := EncodeSpec(sys)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		again, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(sys, again) {
			t.Fatalf("round trip changed the system:\n%+v\n%+v", sys, again)
		}
		if enc2, err := EncodeSpec(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not canonical (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}
