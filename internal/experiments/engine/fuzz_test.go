package engine

import (
	"bytes"
	"path/filepath"
	"strings"
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

// FuzzValidName checks the store handler's name gate: every name it
// accepts is one path element, neither "." nor "..", that joins to an
// entry directly under the store root.
func FuzzValidName(f *testing.F) {
	for _, seed := range []string{
		"0123456789abcdef.json", "ab-cd.actr", ".", "..", "a..b", "../x", "a/b",
		`a\b`, "", "A.json", ".hidden", "x.", "%2e%2e",
	} {
		f.Add(seed)
	}
	root := filepath.Join(string(filepath.Separator)+"store", "root")
	f.Fuzz(func(t *testing.T, name string) {
		if !validName(name) {
			return
		}
		if name == "." || name == ".." || strings.ContainsRune(name, '/') || strings.ContainsRune(name, filepath.Separator) {
			t.Fatalf("accepted %q, which is not one plain path element", name)
		}
		if joined := filepath.Join(root, name); filepath.Dir(joined) != root || filepath.Base(joined) != name {
			t.Fatalf("accepted %q, which joins to %q outside %s", name, joined, root)
		}
	})
}
