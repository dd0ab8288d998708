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
// A snapshot file is a one-line JSON envelope, its header fields first:
//
//	{"version":2,"sha256":"<hex>","payload":{…FleetState…}}
//
// The checksum covers the payload's compact form — the bytes Encode
// writes — so a re-indented copy still verifies, while truncation, bit
// rot, and hand editing all surface as a clean ErrChecksum — never a
// half-restored fleet. Decode reads the version and checksum as tokens,
// verifies the payload's bytes, and only then parses them, once, from
// the one buffer the snapshot was read into.
//
// encoding/json is the payload's definition: a payload is the bytes
// json.Marshal writes for a FleetState, and means what json.Unmarshal
// into FleetState makes of it. Both directions are typed passes that
// hold to that definition. The payload is written by a typed writer
// (encode.go) whose bytes are json.Marshal's, streamed through a small
// scratch buffer: WriteFile writes the file in one pass and then writes
// the checksum over its placeholder in the header, and Encode, whose
// writer cannot seek, runs the writer once into the hash and once into
// the writer, so a state json.Marshal refuses (a NaN, an infinity)
// fails before a byte is written. A version 2 payload is parsed by a
// typed pass (decode.go) that takes only what it can prove
// json.Unmarshal reads to the same state — every payload Encode writes
// whose strings are printable ASCII — and hands anything else whole to
// json.Unmarshal, so results and errors never depend on which of the two
// read it.
//
// The payload stores each benefit model once: FleetState.Models is a
// table of training data, and every library entry is a (rate, index)
// reference into it, so a model shared by many libraries is written and
// refitted once.
//
// The version is bumped on any incompatible payload change; readers
// reject versions they do not understand (ErrVersion) instead of
// guessing. Version 1 — training data inline in every library entry, no
// table — is still read, through one translation function (v1.go).
// Encode writes only version 2, which builds that predate it refuse with
// ErrVersion: they parse the whole envelope, then check its version.
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
// identical decision sequences (the replay cells of cmd/autrascale's
// TestCLIGates prove it with audit.Diff).
package persist

import (
	"bufio"
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

// formatVersion is the snapshot format version this build writes. It
// also reads version 1 (v1.go).
const formatVersion = 2

// Sentinel errors of the snapshot reader.
var (
	// ErrChecksum marks a payload whose bytes do not hash to the
	// envelope's checksum — truncation, corruption, or tampering.
	ErrChecksum = errors.New("persist: snapshot checksum mismatch")
	// ErrVersion marks an envelope written by an incompatible format
	// version.
	ErrVersion = errors.New("persist: unsupported snapshot version")
)

// sha256Hex is the envelope's rendering of a digest.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verified reports whether a payload matches the envelope's checksum.
// Encode writes the payload compact, so its bytes hash as they are; only
// a re-indented copy pays for compacting first. Bytes that are not one
// JSON value do not match.
func verified(payload []byte, sum string) bool {
	if sha256Hex(payload) == sum {
		return true
	}
	var compact bytes.Buffer
	return json.Compact(&compact, payload) == nil && sha256Hex(compact.Bytes()) == sum
}

// Encode writes the state to w as a versioned, checksummed snapshot, in
// one line. w need not seek, so the checksum the header carries is
// learned first: the typed writer (encode.go) runs twice, once into the
// hash alone and once into w. A state that cannot be encoded — a NaN,
// say — fails the first run, and w receives nothing.
func Encode(w io.Writer, st *FleetState) error {
	e := newEncoder(nil)
	sum := sha256.New()
	e.payload(st, sum)
	if e.err != nil {
		return e.err
	}
	var digest [sha256.Size]byte
	var checksum [2 * sha256.Size]byte
	hex.Encode(checksum[:], sum.Sum(digest[:0]))
	e.w = w
	e.envelope(st, checksum[:], nil)
	return e.err
}

// Decode reads and verifies a snapshot: the envelope's leading fields,
// the format version, then the payload checksum, and only then does it
// parse the payload, once. A truncated or corrupted file fails one of
// those steps — either way the caller gets an error and no partial
// state.
func Decode(r io.Reader) (*FleetState, error) {
	// io.Copy, not io.ReadAll: a bytes.Reader is copied in one exactly
	// sized write, and any other reader grows the buffer by doubling.
	var data bytes.Buffer
	if _, err := io.Copy(&data, r); err != nil {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	return decode(data.Bytes())
}

// decode is Decode on a snapshot already in memory, which it reads in
// place.
func decode(data []byte) (*FleetState, error) {
	version, payload, err := envelope(data)
	if err != nil {
		return nil, err
	}
	if version == 1 {
		return decodeV1(payload)
	}
	if st, ok := decodePayload(payload); ok {
		return st, nil
	}
	// What the typed pass declines, json.Unmarshal — the format's
	// definition — reads or refuses as it always has.
	var st FleetState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("persist: decode snapshot payload: %w", err)
	}
	return &st, nil
}

// envelope reads a snapshot's header fields and returns its version and
// its payload, verified against the checksum but not yet parsed.
func envelope(data []byte) (version int, payload []byte, err error) {
	// The header fields are read as tokens, which leaves the payload
	// unscanned: it is hashed before any JSON parser reads it.
	dec := json.NewDecoder(bytes.NewReader(data))
	field := func(name string, v any) error {
		if tok, err := dec.Token(); err != nil || tok != name {
			return fmt.Errorf("persist: decode snapshot envelope: want %q next", name)
		}
		if v == nil {
			return nil
		}
		if err := dec.Decode(v); err != nil {
			return fmt.Errorf("persist: decode snapshot envelope: %s: %w", name, err)
		}
		return nil
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, nil, errors.New("persist: decode snapshot envelope: not a JSON object")
	}
	if err := field("version", &version); err != nil {
		return 0, nil, err
	}
	if version != formatVersion && version != 1 {
		return 0, nil, fmt.Errorf("%w: got %d, want %d or 1", ErrVersion, version, formatVersion)
	}
	var sum string
	if err := field("sha256", &sum); err != nil {
		return 0, nil, err
	}
	if err := field("payload", nil); err != nil {
		return 0, nil, err
	}
	// The payload is what lies between the key's colon and the
	// envelope's closing brace; the checksum vouches that nothing else
	// does.
	rest := bytes.TrimSpace(data[dec.InputOffset():])
	rest, colon := bytes.CutPrefix(rest, []byte(":"))
	rest, brace := bytes.CutSuffix(rest, []byte("}"))
	payload = bytes.TrimSpace(rest)
	if !colon || !brace || !verified(payload, sum) {
		return 0, nil, ErrChecksum
	}
	return version, payload, nil
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
	if err := writeSnapshot(tmp, st); err != nil {
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

// checksumAt is where the header's checksum starts in a snapshot.
var checksumAt = int64(len(header(nil)))

// writeSnapshot streams the snapshot into f in one pass, hashing the
// payload as it goes. The header's checksum is known only at the end,
// so a placeholder of as many zeros stands in for it until the payload
// is written, and the checksum is then written over it: the bytes are
// Encode's.
func writeSnapshot(f *os.File, st *FleetState) error {
	bw := bufio.NewWriterSize(f, 64<<10)
	e := newEncoder(bw)
	sum := sha256.New()
	var checksum [2 * sha256.Size]byte
	for i := range checksum {
		checksum[i] = '0'
	}
	e.envelope(st, checksum[:], sum)
	if e.err != nil {
		return e.err
	}
	var digest [sha256.Size]byte
	hex.Encode(checksum[:], sum.Sum(digest[:0]))
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("persist: encode snapshot: %w", err)
	}
	if _, err := f.WriteAt(checksum[:], checksumAt); err != nil {
		return fmt.Errorf("persist: encode snapshot: %w", err)
	}
	return nil
}

// ReadFile loads and verifies a snapshot from path.
func ReadFile(path string) (*FleetState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: open snapshot: %w", err)
	}
	return decode(data)
}
