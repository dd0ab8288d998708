package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecode: every input Decode accepts re-encodes to bytes that decode
// again, to the same state — decode∘encode is the identity on decoded
// states — and the re-encoding is a fixpoint of encode∘decode. States are
// compared by their encoding, because the format does not distinguish an
// omitted list from an empty one. An input Decode rejects yields no state.
// And the typed pass is differential against its definition: whatever
// version 2 payload it takes, json.Unmarshal reads to a reflect.DeepEqual
// state, which tells a nil slice from an empty one. So is the typed
// writer: whatever state json.Unmarshal reads from an input, the writer
// writes as json.Marshal's bytes.
//
// Each input is tried as a whole snapshot and as a payload sealed in a
// valid envelope, so mutations reach the payload decoder instead of
// stopping at the checksum. The seeds are a snapshot, the version 1
// fixture, an envelope whose header has no payload, a snapshot with
// trailing garbage, a bare payload, and typedCases: one payload for each
// way into and out of the typed pass.
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
	for _, c := range typedCases(f) {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := fmt.Appendf(nil, `{"version":%d,"sha256":%q,"payload":%s}`, formatVersion, sha256Hex(data), data)
		for _, in := range [][]byte{data, sealed} {
			checkReencodes(t, in)
			if version, payload, err := envelope(in); err == nil && version == formatVersion {
				checkTypedPass(t, payload)
			}
		}
		var st FleetState
		if json.Unmarshal(data, &st) == nil {
			checkWriter(t, &st)
		}
	})
}

// checkTypedPass asserts that a payload the typed pass takes is one
// json.Unmarshal reads to the same state, and reports whether it took it.
// The states' encodings must match too: reflect.DeepEqual holds -0 and 0
// equal, and json.Marshal does not.
func checkTypedPass(t *testing.T, payload []byte) (taken bool) {
	t.Helper()
	st, ok := decodePayload(payload)
	if !ok {
		return false
	}
	var want FleetState
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatalf("the typed pass took a payload json.Unmarshal refuses (%v):\n%s", err, payload)
	}
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, &want) || !bytes.Equal(got, wantJSON) {
		t.Fatalf("the typed pass read\n%s\nwhere json.Unmarshal reads\n%s\nfrom\n%s", got, wantJSON, payload)
	}
	return true
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
