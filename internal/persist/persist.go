// Package persist is the durable control plane's format and IO layer:
// it serializes a fleet's full state — shared model libraries, per-job
// controller and engine state, the clock, and timer-wheel due times —
// into a versioned, checksummed snapshot, writes it atomically, and
// checkpoints it periodically off the fleet's tick path.
//
// The paper's transfer-learning pitch ("the accuracy of the model will
// gradually increase as the training data increases", §IV) only holds
// if the accumulated models survive a restart; this package is what
// makes the tuning history a durable asset instead of process memory.
//
// # Format
//
// A snapshot file is a one-line JSON envelope:
//
//	{"version":1,"sha256":"<hex>","payload":{…FleetState…}}
//
// The checksum covers the payload's compact form — the bytes Encode
// writes — so a re-indented copy still verifies, while truncation, bit
// rot, and hand editing all surface as a clean ErrChecksum — never a
// half-restored fleet. The version is bumped on any incompatible
// payload change; readers reject versions they do not understand
// (ErrVersion) instead of guessing.
//
// # Restore semantics
//
// A snapshot captures *control state*, not simulator microstate: on
// restore, engines are rebuilt fresh at the persisted parallelism, seed,
// RNG position, and time-shifted schedule; backlog is dropped (the same
// SeekToLatest semantics every planning session already applies) and
// machines start healthy with the chaos schedule re-derived from the
// profile name. Restore is therefore a deterministic function of the
// snapshot bytes: two fleets restored from the same file replay
// identical decision sequences (the crash-replay gate in `make replay`
// proves it with flightctl diff).
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// formatVersion is the snapshot format version this build reads and
// writes.
const formatVersion = 1

// Sentinel errors of the snapshot reader.
var (
	// ErrChecksum marks a payload whose bytes do not hash to the
	// envelope's checksum — truncation, corruption, or tampering.
	ErrChecksum = errors.New("persist: snapshot checksum mismatch")
	// ErrVersion marks an envelope written by an incompatible format
	// version.
	ErrVersion = errors.New("persist: unsupported snapshot version")
)

// envelope is the on-disk frame around the payload.
type envelope struct {
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// sha256Hex is the envelope's rendering of a digest.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checksum hashes a payload's *compact* JSON form, so the stored hash is
// stable under re-indentation while still catching any value-level
// corruption.
func checksum(payload []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return "", fmt.Errorf("persist: compact payload: %w", err)
	}
	return sha256Hex(compact.Bytes()), nil
}

// Encode writes the state to w as a versioned, checksummed snapshot, in
// one line. json.Marshal's output is already compact, so it is hashed and
// written as is: the envelope is spelled out around it rather than
// re-encoded, which would compact the payload a second time.
func Encode(w io.Writer, st *FleetState) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("persist: marshal payload: %w", err)
	}
	head := fmt.Sprintf(`{"version":%d,"sha256":%q,"payload":`, formatVersion, sha256Hex(payload))
	for _, b := range [][]byte{[]byte(head), payload, []byte("}\n")} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("persist: encode snapshot: %w", err)
		}
	}
	return nil
}

// Decode reads and verifies a snapshot: envelope syntax, format
// version, then the payload checksum. A truncated file fails the JSON
// decode; a corrupted one fails the checksum — either way the caller
// gets an error and no partial state.
func Decode(r io.Reader) (*FleetState, error) {
	// io.Copy, not io.ReadAll: a bytes.Reader is copied in one exactly
	// sized write, and any other reader grows the buffer by doubling.
	var data bytes.Buffer
	if _, err := io.Copy(&data, r); err != nil {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data.Bytes(), &env); err != nil {
		return nil, fmt.Errorf("persist: decode snapshot envelope: %w", err)
	}
	if env.Version != formatVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, env.Version, formatVersion)
	}
	// Encode writes the payload compact, so its bytes hash as they are;
	// only a re-indented copy (or a file from an indenting writer) pays
	// for compacting first.
	if sha256Hex(env.Payload) != env.SHA256 {
		sum, err := checksum(env.Payload)
		if err != nil {
			return nil, err
		}
		if sum != env.SHA256 {
			return nil, ErrChecksum
		}
	}
	var st FleetState
	if err := json.Unmarshal(env.Payload, &st); err != nil {
		return nil, fmt.Errorf("persist: decode snapshot payload: %w", err)
	}
	return &st, nil
}

// WriteFile atomically persists the state to path: the snapshot is
// written to a temp file in the same directory, synced, and renamed
// over the target — a reader (or a crash) sees either the old complete
// snapshot or the new complete snapshot, never a partial write.
func WriteFile(path string, st *FleetState) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: create temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Encode(tmp, st); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	return nil
}

// ReadFile loads and verifies a snapshot from path.
func ReadFile(path string) (*FleetState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: open snapshot: %w", err)
	}
	return Decode(bytes.NewReader(data))
}
