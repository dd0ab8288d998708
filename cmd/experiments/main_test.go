package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite docs/experiment_output.txt from this build")

const outputGolden = "../../docs/experiment_output.txt"

// docs/experiment_output.txt is what `experiments -seed 1 all` prints, up
// to the cells that time the host instead of the simulation. Bless a
// deliberate change with `go test ./cmd/experiments -update`.
func TestExperimentOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-seed", "1", "all"}, &out); code != 0 {
		t.Fatalf("experiments -seed 1 all exited %d", code)
	}
	if *update {
		if err := os.WriteFile(outputGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(outputGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(maskWallClock(out.String()), "\n")
	want := strings.Split(maskWallClock(string(blob)), "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s drifted from the command at line %d (bless with -update if intentional):\n got: %q\nwant: %q",
				outputGolden, i+1, g, w)
		}
	}
}

// The tournament gate: the small policy×schedule×chaos grid exits 0 on
// every seed of the matrix, and any cell whose controller dies fails it.
func TestTournamentGate(t *testing.T) {
	for _, seed := range []string{"1", "7", "42"} {
		t.Run("seed="+seed, func(t *testing.T) {
			args := []string{"-seed", seed, "-workers", "4",
				"-policies", "bo,ds2-online,drs-true", "-schedules", "step,flash-crowd",
				"-chaos", "none,light", "-duration", "1800", "tournament"}
			if code := run(args, io.Discard); code != 0 {
				t.Fatalf("experiments %s exited %d", strings.Join(args, " "), code)
			}
		})
	}
}

var overheadCell = regexp.MustCompile(`[0-9.]+ s worst +`)

// maskWallClock blanks the wall-clock cells: Table IV's three time
// columns (whitespace collapsed, since their widths size the columns) and
// the measured cell of the summary's tab4-overhead row.
func maskWallClock(s string) string {
	lines := strings.Split(s, "\n")
	inTable4 := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "Table IV"):
			inTable4 = true
		case l == "":
			inTable4 = false
		case inTable4:
			f := strings.Fields(l)
			switch {
			case strings.Trim(l, "- ") == "":
				lines[i] = "---"
			case len(f) == 4 && f[0] != "operators":
				lines[i] = f[0] + " <wall> <wall> <wall>"
			default:
				lines[i] = strings.Join(f, " ")
			}
		case strings.HasPrefix(l, "tab4-overhead"):
			lines[i] = overheadCell.ReplaceAllString(l, "<wall> s worst ")
		}
	}
	return strings.Join(lines, "\n")
}
