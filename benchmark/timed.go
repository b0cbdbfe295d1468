package main

import (
	"fmt"
	"runtime"
	"time"

	"jitckpt/internal/vclock"
)

// setupReps is how many times a timed run sets the workload up; setup_s is
// the median, so one slow first build (cold code, page faults) does not
// decide it.
const setupReps = 3

// built is a workload set up for one seed, ready to be measured.
type built struct {
	inst *instance
	// refDigest is each variant's expected digest: the warm-up pass's where
	// there is one, else the first measured pass's.
	refDigest []uint64
	haveRef   []bool
	// refKernel is each variant's first (kernel counters, simulated time);
	// unstable lists the variants where a later pass of the same input
	// counted differently — nondeterminism inside the simulator, reported
	// but not failed, because every run still met its checks.
	refKernel []kernelCount
	unstable  []string
	// setupS are the set-up times at nominal machine speed (see pulse),
	// rawSetupS as measured.
	setupS    []float64
	rawSetupS []float64

	attempted int
	failed    int
	failures  []string
}

// kernelCount is what a pass counted in virtual terms.
type kernelCount struct {
	sim     vclock.Stats
	simTime vclock.Time
}

// setUp builds the workload reps times — config build, failure-free
// reference runs, one warm-up cycle where the workload has one — and keeps
// the last build for measuring.
func setUp(def workloadDef, seed int64, reps int) (*built, error) {
	b := &built{}
	gap := pulseGap(0, 6)
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		start := time.Now()
		inst, err := def.build(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		b.inst = inst
		b.refDigest = make([]uint64, inst.variants)
		b.haveRef = make([]bool, inst.variants)
		b.refKernel = make([]kernelCount, inst.variants)
		if def.warmup {
			for v := 0; v < inst.variants; v++ {
				// A workload that cannot tell its run count from its
				// configuration has it counted here, by run id (what
				// trace.Query.Runs reports), through a retention-free
				// recorder.
				var t *tracer
				var counter *countingSink
				if inst.runsPerPass == 0 {
					counter = &countingSink{}
					t = &tracer{rec: noRetainRecorder(counter)}
				}
				res := inst.pass(v, t)
				if counter != nil {
					inst.runsPerPass = counter.runs
					res.runs = counter.runs
				}
				if rep == reps-1 {
					b.check(v, res)
				}
			}
		}
		// Like a pass, a set-up is timed against the pulses around it.
		raw := time.Since(start).Seconds()
		next := pulseGap(raw*1000, 6)
		b.rawSetupS = append(b.rawSetupS, raw)
		b.setupS = append(b.setupS, raw*pulseNominalMs/median(append(gap, next...)))
		gap = next
	}
	return b, nil
}

// check accounts one pass's outcome: its failed runs, and whether it
// reproduced the digest of the variant's first pass.
func (b *built) check(v int, res passResult) {
	b.attempted += res.runs
	b.failed += res.failed
	for _, f := range res.failures {
		b.failures = append(b.failures, f+" ["+b.inst.config(v)+"]")
	}
	if res.failed > 0 {
		return // a failed pass has no meaningful digest
	}
	kernel := kernelCount{res.sim, res.simTime}
	if !b.haveRef[v] {
		b.refDigest[v], b.refKernel[v], b.haveRef[v] = res.digest, kernel, true
		return
	}
	if kernel != b.refKernel[v] {
		b.unstable = append(b.unstable, fmt.Sprintf("events %d, sim time %v vs the first pass's %d, %v [%s]",
			kernel.sim.Events(), kernel.simTime, b.refKernel[v].sim.Events(), b.refKernel[v].simTime, b.inst.config(v)))
		b.refKernel[v] = kernel // report each flip once
	}
	if res.digest != b.refDigest[v] {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf("digest %016x differs from the first pass's %016x [%s]",
			res.digest, b.refDigest[v], b.inst.config(v)))
	}
}

// digest folds the per-variant reference digests into the run's
// sim_digest.
func (b *built) digest() uint64 {
	d := newDigest()
	for v, ok := range b.haveRef {
		if ok {
			d.u64(b.refDigest[v])
		}
	}
	return d.sum()
}

// passSample is the host cost of one pass.
type passSample struct {
	wallMs, cpuMs float64
}

// measure runs one pass of variant v with the garbage collected first and
// outside the timed region, and accounts its outcome.
func (b *built) measure(v int, t *tracer) (passSample, passResult) {
	runtime.GC()
	cpu0 := cpuMillis()
	start := time.Now()
	res := b.inst.pass(v, t)
	s := passSample{
		wallMs: time.Since(start).Seconds() * 1000,
		cpuMs:  cpuMillis() - cpu0,
	}
	b.check(v, res)
	return s, res
}

// timedResult is everything the timed phase (tracing off) measured.
type timedResult struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Env         envBlock `json:"env"`
	CalibBefore float64  `json:"calib_before_ms"`
	CalibAfter  float64  `json:"calib_after_ms"`
	Noisy       bool     `json:"noisy"`

	Variants    int `json:"variants"`
	Cycles      int `json:"cycles"`
	RunsPerPass int `json:"runs_per_pass"`

	// The gated values. WallMs, CPUMs and SetupS are normalized to the
	// machine's speed at the time (see pulse); the Raw ones are the same
	// estimators on the times as measured.
	WallMs    float64 `json:"wall_ms"`
	CPUMs     float64 `json:"cpu_ms"`
	RunsPerS  float64 `json:"runs_per_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	SetupS    float64 `json:"setup_s"`
	RawWallMs float64 `json:"raw_wall_ms"`
	RawCPUMs  float64 `json:"raw_cpu_ms"`
	RawSetupS float64 `json:"raw_setup_s"`
	PulseMs   float64 `json:"pulse_ms"` // median pulse over the run
	// Wall and CPU summarize every pass's raw time: median, n, and the
	// highest percentile with ten samples beyond it (else min/max).
	Wall timing `json:"wall"`
	CPU  timing `json:"cpu"`

	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"sim_digest"`
	// Unstable lists inputs whose kernel counters or simulated time
	// differed between passes in this run.
	Unstable []string `json:"unstable,omitempty"`

	// Simulated outcome of the last cycle; virtual.
	RedoIters   int     `json:"sim_redo_iters"`
	Events      uint64  `json:"vclock_events"`
	SimTimeS    float64 `json:"sim_time_s"`
	PaperErrPct float64 `json:"paper_err_pct"`
}

// variantMedians reduces per-pass samples, grouped by variant, to the
// gated value: the mean over variants of each variant's median.
func variantMedians(samples [][]float64) float64 {
	meds := make([]float64, 0, len(samples))
	for _, s := range samples {
		if len(s) > 0 {
			meds = append(meds, median(s))
		}
	}
	return mean(meds)
}

// runTimed is the timed phase: closed loop, one pass at a time, tracing
// off. It measures whole cycles until budget has elapsed and at least the
// workload's minimum (or exactly cycles, when cycles > 0).
func runTimed(def workloadDef, seed int64, budget time.Duration, cycles int) (*timedResult, error) {
	out := &timedResult{Workload: def.name, Seed: seed, Env: readEnv()}
	out.CalibBefore = canary()

	b, err := setUp(def, seed, setupReps)
	if err != nil {
		return nil, err
	}
	inst := b.inst
	out.Variants = inst.variants
	out.SetupS = median(b.setupS)
	out.RawSetupS = median(b.rawSetupS)

	// Pulses of the machine canary run in every gap between passes. gaps[i]
	// precedes pass i (in measuring order) and gaps[i+1] follows it.
	type sample struct {
		variant int
		passSample
	}
	var samples []sample
	gaps := [][]float64{pulseGap(0, 3)}
	begin := time.Now()
	for {
		if cycles > 0 {
			if out.Cycles >= cycles {
				break
			}
		} else if out.Cycles >= def.minCycles && time.Since(begin) >= budget {
			break
		}
		var redo int
		var events uint64
		var simTime float64
		for v := 0; v < inst.variants; v++ {
			s, res := b.measure(v, nil)
			samples = append(samples, sample{v, s})
			gaps = append(gaps, pulseGap(s.wallMs, 1))
			redo += res.redoIters
			events += res.sim.Events()
			simTime += res.simTime.Sec()
			out.PaperErrPct = res.paperErr
		}
		out.RedoIters, out.Events, out.SimTimeS = redo, events, simTime
		out.Cycles++
	}
	out.PeakRSSMB = peakRSSMB()

	// A pass's normalized time is its time over the median pulse of the
	// four gaps nearest to it (two before, two after: wide enough to
	// average the pulse's own noise, narrow enough to follow the machine),
	// in units of the nominal pulse.
	wall := make([][]float64, inst.variants)
	cpu := make([][]float64, inst.variants)
	normWall := make([][]float64, inst.variants)
	normCPU := make([][]float64, inst.variants)
	var allWall, allCPU, allPulses []float64
	for i, s := range samples {
		var near []float64
		for g := i - 1; g <= i+2; g++ {
			if g >= 0 && g < len(gaps) {
				near = append(near, gaps[g]...)
			}
		}
		scale := pulseNominalMs / median(near)
		v := s.variant
		wall[v] = append(wall[v], s.wallMs)
		cpu[v] = append(cpu[v], s.cpuMs)
		normWall[v] = append(normWall[v], s.wallMs*scale)
		normCPU[v] = append(normCPU[v], s.cpuMs*scale)
		allWall = append(allWall, s.wallMs)
		allCPU = append(allCPU, s.cpuMs)
	}
	for _, g := range gaps {
		allPulses = append(allPulses, g...)
	}
	out.WallMs = variantMedians(normWall)
	out.CPUMs = variantMedians(normCPU)
	out.RawWallMs = variantMedians(wall)
	out.RawCPUMs = variantMedians(cpu)
	out.PulseMs = median(allPulses)
	out.Wall = summarize(allWall)
	out.CPU = summarize(allCPU)
	out.RunsPerPass = inst.runsPerPass
	out.RunsPerS = float64(out.RunsPerPass) / (out.WallMs / 1000)
	out.Attempted, out.Failed, out.Failures = b.attempted, b.failed, b.failures
	out.Unstable = b.unstable
	out.Digest = fmt.Sprintf("%016x", b.digest())

	out.CalibAfter = canary()
	out.Noisy = noisy(out.CalibBefore, out.CalibAfter)
	return out, nil
}
