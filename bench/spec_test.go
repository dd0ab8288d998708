package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json's schema: exactly these keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json at the repository root is the contract the PR driver
// reads; spec.go is what the harness reports. They must not drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(blob))
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q", got)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", f.RunSeconds, defaultSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's charset or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(registry) || len(registry) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d registered, %d named", len(f.Workloads), len(registry), len(allWorkloads))
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != registry[i].Name || w.Why != registry[i].Why || w.Name != allWorkloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the registry %q", i, w.Name, registry[i].Name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (limit 16)", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		name(m.Name)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, bound %v, better %q", m.Name, m.Unit, m.Bound, m.Better)
		}
		for _, w := range s.Native {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("%s is native on unknown workload %q", s.Name, w)
			}
		}
	}
	if f.EndToEnd[0].Name != "setup_s" || f.EndToEnd[0].Unit != "s" || f.EndToEnd[0].Better != "lower" {
		t.Errorf("the contract wants setup_s in seconds, lower is better: %+v", f.EndToEnd[0])
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (limit 128)", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %s %s %s", i, m, s.Name, s.Unit, s.Better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || s.Layer == "" || s.Moves == "" {
			t.Errorf("per-layer %s: unit %q, better %q, layer %q, moves %q", m.Name, m.Unit, m.Better, s.Layer, s.Moves)
		}
	}
}
