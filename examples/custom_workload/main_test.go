package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.txt from this build")

const outputGolden = "testdata/output.txt"

// testdata/output.txt is what the example prints: the pipeline, its
// Eq. 3 base and Algorithm 1's recommendation. Bless a deliberate change
// with `go test ./examples/custom_workload -update`.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(outputGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(outputGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("%s drifted from the example (bless with -update if intentional):\n got:\n%s\nwant:\n%s",
			outputGolden, got, want)
	}
}
