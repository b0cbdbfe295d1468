package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"jitckpt/internal/clitest"
	"jitckpt/internal/tracestream"
)

var jitsimBin string

func TestMain(m *testing.M) { os.Exit(clitest.Main(m, &jitsimBin)) }

func TestCLI(t *testing.T) {
	clitest.Run(t, jitsimBin, []clitest.Case{
		{Name: "unknown policy", Args: "-policy warp", Exit: 2, Want: []string{`unknown policy "warp"`}},
		{Name: "-debug is gone", Args: "-debug", Exit: 2, Want: []string{"flag provided but not defined: -debug"}},
		{Name: "malformed -rs", Args: "-workload GPT2-8B -policy peer -rs 2x1", Exit: 2, Want: []string{`bad -rs "2x1"`}},
		{Name: "malformed -mix", Args: "-fail-rate 100 -mix gpu-hard:lots", Exit: 2, Want: []string{`bad weight "lots"`}},
		{Name: "malformed -fleet", Args: "-fleet 4jit", Exit: 2, Want: []string{`bad jobs group "4jit"`}},
		{Name: "single-job flag under -fleet", Args: "-fleet 2xuserjit -fail gpu-hard", Exit: 2, Want: []string{"-fail is a single-job flag"}},
		{Name: "single-job flags under -fleet, first named", Args: "-fleet 2xuserjit -policy warp -workload nope -chaos -rs 9,9", Exit: 2, Want: []string{"-chaos is a single-job flag"}},
		{Name: "fleet flag without -fleet", Args: "-policy userjit -repair 5", Exit: 2, Want: []string{"-repair is a fleet flag"}},
		{Name: "fleet geometry without -fleet", Args: "-fleet-rack 2 -fleet-nodes 8", Exit: 2, Want: []string{"-fleet-nodes is a fleet flag"}},
		{Name: "negative -loss", Args: "-loss -3", Exit: 2, Want: []string{"-loss must not be negative"}},
		{Name: "-chaos-p above 1", Args: "-policy userjit -chaos -chaos-p 1.5", Exit: 2, Want: []string{"-chaos-p must be within [0,1]"}},
		{Name: "negative -chaos-p", Args: "-policy userjit -chaos -chaos-p -0.1", Exit: 2, Want: []string{"-chaos-p must be within [0,1]"}},
		{Name: "negative -fail-rate", Args: "-fail-rate -5", Exit: 2, Want: []string{"-fail-rate must not be negative"}},
		{Name: "negative -fail-rate under -fleet", Args: "-fleet 2xuserjit -fail-rate -5", Exit: 2, Want: []string{"-fail-rate must not be negative"}},
		{Name: "negative -rack", Args: "-rack -1", Exit: 2, Want: []string{"-rack must not be negative"}},
		{Name: "negative -fail-frac", Args: "-fail gpu-hard -fail-frac -0.5", Exit: 2, Want: []string{"-fail-frac must not be negative"}},
		{Name: "-fail-iter at -iters", Args: "-fail gpu-hard -fail-iter 8 -iters 8", Exit: 2, Want: []string{"-fail-iter must be below -iters"}},
		{Name: "-fail-iter beyond -iters without -fail", Args: "-policy userjit -fail-iter 99 -iters 4", Want: []string{"completed:    true"}},
		{Name: "transparent recovers a sticky error", Args: "-policy transparent -fail gpu-sticky -fail-iter 5 -iters 8", Want: []string{"completed:    true"}},
		{Name: "userjit recovers a lost GPU", Args: "-policy userjit -fail gpu-hard -fail-iter 5 -iters 8", Want: []string{"completed:    true"}},
	})
}

// serve starts jitsim with args plus -serve on a free loopback port and
// returns the process and the served base URL once the run has finished.
// The caller interrupts it (stopServing).
func serve(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(jitsimBin, append(args, "-serve", "127.0.0.1:0")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) // no-op once Wait has reaped it
	var base string
	lines := bufio.NewScanner(stderr)
	for lines.Scan() {
		if _, rest, ok := strings.Cut(lines.Text(), "serving live metrics on "); ok {
			base, _, _ = strings.Cut(rest, " ")
		}
		if strings.Contains(lines.Text(), "run finished; still serving") {
			break
		}
	}
	if base == "" {
		t.Fatalf("no serving address on stderr (scan error: %v)", lines.Err())
	}
	return cmd, base
}

// stopServing interrupts a lingering -serve run and expects a clean exit.
func stopServing(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("after SIGINT: %v, want exit 0", err)
	}
}

// TestServe drives -serve as an operator would: start the run, take the
// address from stderr, read every endpoint over loopback once the run has
// finished, interrupt, and expect a clean exit.
func TestServe(t *testing.T) {
	cmd, base := serve(t, strings.Fields("-policy userjit -fail gpu-hard -fail-iter 5 -iters 8")...)
	get := func(path string, wantCode int, into interface{}) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: %d, want %d", path, resp.StatusCode, wantCode)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
	}
	var m tracestream.MetricsSnapshot
	get("/metrics", 200, &m)
	if m.JobsCompleted != 1 || m.RecoveryEpisodes == 0 {
		t.Errorf("/metrics: %d jobs completed, %d recovery episodes; want 1 and at least 1", m.JobsCompleted, m.RecoveryEpisodes)
	}
	var f tracestream.FleetResponse
	get("/fleet", 200, &f)
	if len(f.Jobs) != 1 || f.Jobs[0].ID != "r1.job" || !f.Jobs[0].Done {
		t.Errorf("/fleet: jobs %+v, want r1.job done", f.Jobs)
	}
	var tl tracestream.TimelineResponse
	get("/jobs/r1.job/timeline", 200, &tl)
	complete := 0
	for _, ev := range tl.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Errorf("timeline of r1.job has no complete span among %d events", len(tl.TraceEvents))
	}
	get("/jobs/ghost/timeline", 404, nil)
	get("/jobs/r1.job/timeline?n=0", 400, nil)
	stopServing(t, cmd)
}

// TestServeKeepsTraceText pins that serving is a view: jitsim wires one
// recorder that both retains the log for -trace-text and feeds the stream,
// and the timeline it writes is byte-identical to an unserved run's.
func TestServeKeepsTraceText(t *testing.T) {
	dir := t.TempDir()
	args := func(out string) []string {
		return append(strings.Fields("-policy transparent -fail gpu-sticky -fail-iter 5 -iters 8 -trace-text"),
			filepath.Join(dir, out))
	}
	if out, err := exec.Command(jitsimBin, args("plain.txt")...).CombinedOutput(); err != nil {
		t.Fatalf("unserved run: %v\n%s", err, out)
	}
	cmd, _ := serve(t, args("served.txt")...)
	stopServing(t, cmd)
	plain, err := os.ReadFile(filepath.Join(dir, "plain.txt"))
	if err != nil {
		t.Fatal(err)
	}
	served, err := os.ReadFile(filepath.Join(dir, "served.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 || !bytes.Equal(plain, served) {
		t.Fatalf("-serve changed -trace-text: %d bytes unserved, %d served", len(plain), len(served))
	}
}
