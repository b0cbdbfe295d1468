// Command benchmark is the repository's benchmark: four workloads that
// drive the simulator through the public functions of jitckpt/internal/*,
// a timed phase (tracing off) for the end-to-end metrics and a traced
// phase for the per-layer ones. See README.md in this directory for the
// glossary, the prediction table and the parent-vs-change recipe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload in this process and print the result line (empty: run every workload, each in a fresh child process)")
		seed      = flag.Int64("seed", 1, "workload seed: the only source of input variation")
		seconds   = flag.Int("seconds", 16, "how long the timed phase measures, per workload")
		traceFlag = flag.Int("trace", -1, "0: timed phase only, 1: traced phase only (default: both, timed first)")
		passes    = flag.Int("passes", 0, "measure exactly this many cycles instead of -seconds (same work on every run)")
		selfcheck = flag.Bool("selfcheck", false, "run the timed phase twice back to back and compare the two sets against the bounds")
		outDir    = flag.String("out", "benchmark/out", "directory for the traced phase's span and profile files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	fixProcs()
	budget := time.Duration(*seconds) * time.Second

	if *workload != "" {
		def, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		os.Exit(runChild(def, *seed, budget, *passes, *traceFlag, *outDir))
	}
	os.Exit(runAll(*seed, *seconds, *passes, *traceFlag, *selfcheck, *outDir))
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPrefix marks the line a child prints with everything it measured,
// for the parent's report and -selfcheck; the contract's result line
// follows it and stays exactly as specified.
const detailPrefix = "detail: "

// childDetail is what a child process hands back to the parent.
type childDetail struct {
	Timed  *timedResult  `json:"timed,omitempty"`
	Traced *tracedResult `json:"traced,omitempty"`
}

// runChild runs one workload in this process: the timed phase, the traced
// phase, or (trace < 0) both, timed first. The last line printed is the
// result line of the last phase run.
func runChild(def workloadDef, seed int64, budget time.Duration, passes, trace int, outDir string) int {
	var detail childDetail
	var line resultLine
	if trace != 1 {
		res, err := runTimed(def, seed, budget, passes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printTimed(os.Stdout, res)
		detail.Timed = res
		line = res.resultLine()
	}
	if trace != 0 {
		res, err := runTraced(def, seed, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printTraced(os.Stdout, res)
		detail.Traced = res
		line = res.resultLine()
	}
	if b, err := json.Marshal(detail); err == nil {
		fmt.Printf("%s%s\n", detailPrefix, b)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}
