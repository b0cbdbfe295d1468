package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spawn runs one workload in a fresh child process of this same binary, so
// that GC state and peak RSS do not leak between workloads, passes the
// child's report through, and returns what it measured. The child has
// ended when spawn returns.
func spawn(name string, seed int64, seconds, passes, trace int, outDir string) (*childDetail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-passes", strconv.Itoa(passes),
		"-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var detail *childDetail
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			var d childDetail
			if err := json.Unmarshal([]byte(rest), &d); err == nil {
				detail = &d
			}
			continue
		}
		if strings.HasPrefix(line, "{") {
			continue // the child's contract line; the parent prints its own summary
		}
		fmt.Println(line)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: child: %w", name, err)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: child output: %w", name, err)
	}
	if detail == nil {
		return nil, fmt.Errorf("%s: child printed no detail line", name)
	}
	return detail, nil
}

// runAll is the default invocation: every workload, each in a fresh child
// process; or, with selfcheck, the timed phase twice back to back.
func runAll(seed int64, seconds, passes, trace int, selfcheck bool, outDir string) int {
	fmt.Printf("jitckpt benchmark  seed=%d  seconds=%d  %s\n", seed, seconds, readEnv())
	if selfcheck {
		return runSelfcheck(seed, seconds, passes, outDir)
	}
	failed := 0
	for _, def := range workloads() {
		d, err := spawn(def.name, seed, seconds, passes, trace, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if d.Timed != nil {
			failed += d.Timed.Failed
		}
		if d.Traced != nil {
			failed += d.Traced.Failed
		}
	}
	if failed > 0 {
		fmt.Printf("FAILED: %d checks failed\n", failed)
		return 1
	}
	return 0
}

// worsening is how much worse b is than a in the metric's bad direction,
// as a share of a (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck measures every workload's timed phase twice (set A, then
// set B, same code, same seed) and holds the pair to the benchmark's own
// rules: every end-to-end metric within its bound in either direction,
// every exact quantity identical, no failed operation.
func runSelfcheck(seed int64, seconds, passes int, outDir string) int {
	bad := 0
	var rows []string
	for _, def := range workloads() {
		var sets [2]*timedResult
		for i := range sets {
			d, err := spawn(def.name, seed, seconds, passes, 0, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			sets[i] = d.Timed
		}
		a, b := sets[0], sets[1]
		va, vb := a.values(), b.values()
		for _, m := range endToEnd {
			diff := math.Max(worsening(m, va[m.Name], vb[m.Name]), worsening(m, vb[m.Name], va[m.Name]))
			verdict := "ok"
			if diff > m.Bound {
				verdict = "EXCEEDS BOUND"
				bad++
			}
			rows = append(rows, fmt.Sprintf("  %-13s %-12s A %12.4f  B %12.4f  diff %5.1f%%  bound %3.0f%%  %s",
				def.name, m.Name, va[m.Name], vb[m.Name], 100*diff, 100*m.Bound, verdict))
		}
		verdict := "identical"
		if a.Digest != b.Digest || a.RedoIters != b.RedoIters || a.PaperErrPct != b.PaperErrPct {
			verdict = "DIFFER"
			bad++
		}
		rows = append(rows, fmt.Sprintf("  %-13s outcome      A digest %s redo %d paper_err %.6f  B digest %s redo %d paper_err %.6f  %s",
			def.name, a.Digest, a.RedoIters, a.PaperErrPct, b.Digest, b.RedoIters, b.PaperErrPct, verdict))
		// Kernel counters should repeat too; where a run flagged its own
		// inputs unstable the simulator is known not to, and a difference
		// is reported without failing the check.
		verdict = "identical"
		if a.Events != b.Events || a.SimTimeS != b.SimTimeS {
			verdict = "DIFFER"
			if len(a.Unstable)+len(b.Unstable) > 0 {
				verdict = "differ (inputs flagged UNSTABLE within a run: simulator nondeterminism)"
			} else {
				bad++
			}
		}
		rows = append(rows, fmt.Sprintf("  %-13s kernel       A events %d sim_time_s %.6f  B events %d sim_time_s %.6f  %s",
			def.name, a.Events, a.SimTimeS, b.Events, b.SimTimeS, verdict))
		if a.Failed+b.Failed > 0 {
			rows = append(rows, fmt.Sprintf("  %-13s ops_failed   A %d  B %d  FAILED", def.name, a.Failed, b.Failed))
			bad++
		}
		if a.Noisy || b.Noisy {
			rows = append(rows, fmt.Sprintf("  %-13s noisy        A %v  B %v  (canary moved more than 5%%: machine drift, not code)", def.name, a.Noisy, b.Noisy))
		}
	}
	fmt.Println("== selfcheck: two sets of the same code")
	for _, r := range rows {
		fmt.Println(r)
	}
	if bad > 0 {
		fmt.Printf("selfcheck FAILED: %d comparisons outside the benchmark's own rules\n", bad)
		return 1
	}
	fmt.Println("selfcheck ok")
	return 0
}
