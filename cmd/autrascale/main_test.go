package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autrascale/internal/audit"
	"autrascale/internal/trace"
)

// dumpFlight must surface write failures as errors (the process exits
// nonzero on them) and write a loadable journal on success.
func TestDumpFlight(t *testing.T) {
	tr := trace.New(0)
	tr.AttachFlight(trace.NewFlightRecorder(16))
	tr.Emit(trace.Record{TimeSec: 1, Kind: trace.KindDecision, Job: "j",
		Attrs: map[string]any{"action": "noop"}})

	if err := dumpFlight(io.Discard, nil, "x"); err != nil {
		t.Fatalf("nil tracer should be a no-op, got %v", err)
	}
	if err := dumpFlight(io.Discard, tr, ""); err != nil {
		t.Fatalf("empty path should be a no-op, got %v", err)
	}

	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := dumpFlight(io.Discard, tr, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := trace.NewRecordDecoder(f)
	rec, err := dec.Next()
	if err != nil {
		t.Fatalf("journal is not valid JSONL: %v", err)
	}
	if rec.Kind != trace.KindDecision || rec.Job != "j" {
		t.Fatalf("unexpected first record: %+v", rec)
	}

	// An unwritable path must error instead of silently dropping the
	// journal.
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.jsonl")
	if err := dumpFlight(io.Discard, tr, bad); err == nil {
		t.Fatal("unwritable path should error")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/once_wordcount.txt from this build")

const onceGolden = "testdata/once_wordcount.txt"

// testdata/once_wordcount.txt is what `autrascale -workload wordcount
// -mode once -seed 1` prints: the Eq. 3 base k' and Algorithm 1's
// recommendation for WordCount. Bless a deliberate change with
// `go test ./cmd/autrascale -run TestOnceGolden -update`.
func TestOnceGolden(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-workload", "wordcount", "-mode", "once", "-seed", "1"}, &out); code != 0 {
		t.Fatalf("autrascale -workload wordcount -mode once -seed 1 exited %d", code)
	}
	if *update {
		if err := os.WriteFile(onceGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(onceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("%s drifted from the command (bless with -update if intentional):\n got:\n%s\nwant:\n%s",
			onceGolden, got, want)
	}
}

// TestCLIGates drives the real command in-process over the seed matrix:
//   - fleet: a 64-job light-chaos fleet journals identically at 1 and 5
//     workers (the round barrier's submission-order flush makes record
//     order worker-count independent);
//   - replay: a heavy-chaos fleet checkpointed mid-run, then restored
//     twice to the same absolute time, journals identically (restore is
//     a function of the snapshot bytes alone, machine kills and all);
//   - fleet flags outside fleet mode are a usage error that writes no
//     file.
func TestCLIGates(t *testing.T) {
	for _, seed := range []string{"1", "7", "42"} {
		t.Run("fleet/seed="+seed, func(t *testing.T) {
			dir := t.TempDir()
			for _, w := range []string{"1", "5"} {
				mustRun(t, "-jobs", "64", "-duration", "3600", "-chaos", "light", "-seed", seed,
					"-workers", w, "-flight", filepath.Join(dir, "w"+w+".jsonl"))
			}
			sameJournals(t, filepath.Join(dir, "w1.jsonl"), filepath.Join(dir, "w5.jsonl"))
		})
		t.Run("replay/seed="+seed, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "ckpt.json")
			mustRun(t, "-jobs", "6", "-duration", "2400", "-chaos", "heavy", "-seed", seed,
				"-checkpoint", ckpt, "-checkpoint-every", "10")
			for _, name := range []string{"a", "b"} {
				mustRun(t, "-restore", ckpt, "-duration", "7200", "-flight", filepath.Join(dir, name+".jsonl"))
			}
			sameJournals(t, filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl"))
		})
	}
	for _, args := range [][]string{
		{"-mode", "controller", "-duration", "600", "-checkpoint", "OUT", "-workers", "3"},
		{"-mode", "controller", "-duration", "600", "-checkpoint", "OUT"},
		{"-mode", "once", "-workers", "3", "-flight", "OUT"},
		{"-workers", "0", "-flight", "OUT"},
	} {
		t.Run("usage/"+strings.Join(args, " "), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			args := append([]string(nil), args...)
			for i, a := range args {
				if a == "OUT" {
					args[i] = out
				}
			}
			if code := run(args, io.Discard); code != 2 {
				t.Fatalf("autrascale %s exited %d, want 2", strings.Join(args, " "), code)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("a rejected run wrote %s (stat: %v)", out, err)
			}
		})
	}
}

// mustRun runs the command with args and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) {
	t.Helper()
	if code := run(args, io.Discard); code != 0 {
		t.Fatalf("autrascale %s exited %d", strings.Join(args, " "), code)
	}
}

// sameJournals fails unless the two journals are audit.Diff-identical,
// non-empty and complete: no seq gaps and nothing evicted by the ring.
func sameJournals(t *testing.T, pathA, pathB string) {
	t.Helper()
	a, b := readJournal(t, pathA), readJournal(t, pathB)
	res := audit.Diff(a, b)
	if !res.Identical {
		t.Fatalf("journals diverge:\n%s", res.Render())
	}
	if res.ARecords != res.BRecords || res.ARecords == 0 {
		t.Fatalf("record counts: a=%d b=%d", res.ARecords, res.BRecords)
	}
	t.Logf("%d records, identical", res.ARecords)
}

func readJournal(t *testing.T, path string) *audit.Journal {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	j, err := audit.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Gaps) != 0 || j.FirstSeq != 1 {
		t.Fatalf("%s is incomplete: first seq %d, gaps %v", path, j.FirstSeq, j.Gaps)
	}
	return j
}
