package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode: every input Decode accepts re-encodes to bytes that decode
// again, to the same state — decode∘encode is the identity on decoded
// states — and the re-encoding is a fixpoint of encode∘decode. States are
// compared by their encoding, because the format does not distinguish an
// omitted list from an empty one. An input Decode rejects yields no state.
//
// Each input is tried as a whole snapshot and as a payload sealed in a
// valid envelope, so mutations reach the payload decoder instead of
// stopping at the checksum. The seeds are a snapshot, the version 1
// fixture, an envelope whose header has no payload, a snapshot with
// trailing garbage, and a bare payload.
func FuzzDecode(f *testing.F) {
	var snap bytes.Buffer
	if err := Encode(&snap, sampleState()); err != nil {
		f.Fatal(err)
	}
	payload, err := json.Marshal(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "soaked_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(v1)
	f.Add(fmt.Appendf(nil, `{"version":%d,"sha256":%q}`, formatVersion, sha256Hex(payload)))
	f.Add(append(bytes.Clone(snap.Bytes()), `{"version":1}`...))
	f.Add(payload)
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := fmt.Appendf(nil, `{"version":%d,"sha256":%q,"payload":%s}`, formatVersion, sha256Hex(data), data)
		for _, in := range [][]byte{data, sealed} {
			checkReencodes(t, in)
		}
	})
}

// checkReencodes asserts FuzzDecode's property on one input.
func checkReencodes(t *testing.T, data []byte) {
	st, err := Decode(bytes.NewReader(data))
	if err != nil {
		if st != nil {
			t.Fatalf("Decode returned a state with error %v", err)
		}
		return
	}
	var enc bytes.Buffer
	if err := Encode(&enc, st); err != nil {
		t.Fatalf("a decoded state does not encode: %v", err)
	}
	back, err := Decode(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatalf("a re-encoded state does not decode: %v\n%s", err, enc.Bytes())
	}
	var again bytes.Buffer
	if err := Encode(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), enc.Bytes()) {
		t.Fatalf("decode∘encode changed the state:\n%s\nvs\n%s", enc.Bytes(), again.Bytes())
	}
}
