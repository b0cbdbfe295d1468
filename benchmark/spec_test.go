package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// benchmarkSpec mirrors BENCHMARK.json, which has exactly these keys.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specEndToEnd `json:"end_to_end"`
	PerLayer   []specPerLayer `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the -seconds the driver passes; main's default matches it.
const runSeconds = 16

func wantSpec() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		spec.Workloads = append(spec.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, specEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, specPerLayer{m.Name, m.Unit, m.Better})
	}
	return spec
}

// BENCHMARK.json at the repository root must say what the tables in this
// package say; `go test -run TestBenchmarkJSON -update` rewrites it.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(wantSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of step with the metric tables; run go test -run TestBenchmarkJSON -update", path)
	}
	var strict benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&strict); err != nil {
		t.Errorf("%s has keys the contract does not: %v", path, err)
	}
	if len(got) > 64<<10 {
		t.Errorf("%s is %d bytes, over the 64 KiB limit", path, len(got))
	}
}

// The contract's limits on names, units, counts and bounds.
func TestSpecWithinContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	spec := wantSpec()
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters (1..200, one line)", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	haveSetup := false
	largest := 0.0
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > largest {
			largest = m.Bound
		}
		if m.Name == "setup_s" {
			haveSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayer {
		if m.What == "" || m.Moves == "" {
			t.Errorf("per-layer %s lacks a definition or a prediction", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	// 4 + 22 runs per workload, with set-up and two builds, inside 3420 s:
	// leave each run twice its measuring time for set-up and canaries.
	if runs := 4 + 22*len(spec.Workloads); float64(runs*spec.RunSeconds)*1.6+120 > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's 3420 s", runs, spec.RunSeconds)
	}
}
