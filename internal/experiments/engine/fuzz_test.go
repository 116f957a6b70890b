package engine

import (
	"bytes"
	"testing"
)

// FuzzDecodeJSONFrame runs the result cache's frame check over arbitrary
// stored bytes: it must never panic, and every frame it accepts must
// re-encode from its payload to exactly the input bytes.
func FuzzDecodeJSONFrame(f *testing.F) {
	f.Add(encodeJSONFrame([]byte(`{"Cycles":12345,"IPC":1.5}`)))
	f.Add(encodeJSONFrame(nil))
	f.Add([]byte(jsonMagic))
	f.Add([]byte(`{"Cycles":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeJSONFrame(data)
		if err != nil {
			return
		}
		if got := encodeJSONFrame(payload); !bytes.Equal(got, data) {
			t.Errorf("accepted frame re-encodes to %x, want %x", got, data)
		}
	})
}
