package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envBlock records the machine a result was measured on. Results taken at
// different GOMAXPROCS or CPU models are not comparable; the block makes
// that visible next to every number.
type envBlock struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"loadavg"`
}

// fixProcs pins GOMAXPROCS to min(2, nproc): 2 is what a jitsim/jitbench
// user gets on the reference 2-core machine, and every committed number
// assumes it.
func fixProcs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
	return n
}

func readEnv() envBlock {
	e := envBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(b))
	}
	return e
}

// cpuMillis is the process's user+system CPU time so far.
func cpuMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), in MB;
// it falls back to Getrusage's maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// canaryBuf is the canary's hash input: 4 MiB hashed repeatedly, so the
// canary streams its bytes without adding them to the workload's peak RSS.
var canaryBuf = make([]byte, 4<<20)

// canarySink keeps the hash result live so the loop is not elided.
var canarySink uint64

// canaryKernel times a fixed stdlib-only CPU kernel that touches none of
// the simulator's code: FNV-64a over hashMiB MiB (memory streaming +
// integer ALU) and pingpongs unbuffered-channel goroutine round trips (the
// wake-up path the vclock kernel leans on at every process handoff).
func canaryKernel(hashMiB, pingpongs int) (ms float64) {
	start := time.Now()
	h := fnv.New64a()
	for i := 0; i < hashMiB/4; i++ {
		h.Write(canaryBuf)
	}
	canarySink = h.Sum64()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < pingpongs; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	return time.Since(start).Seconds() * 1000
}

// canary is calib_ms: the kernel at 64 MiB + 100k ping-pongs, best of
// three since interference only ever slows it. Run before and after a
// workload, it tells machine drift from a code change: when the two
// readings differ by more than 5% the workload's numbers are flagged
// noisy.
func canary() (ms float64) {
	best := canaryKernel(64, 100000)
	for i := 0; i < 2; i++ {
		if c := canaryKernel(64, 100000); c < best {
			best = c
		}
	}
	return best
}

// pulse is the canary run between passes: 25k goroutine ping-pongs and
// nothing else. This machine moves between speed states for minutes at a
// time (a neighbour on the host, a busy SMT sibling). Logged over 40
// minutes, the four workloads' pass times swung by 17-29% together, and so
// did goroutine ping-pong (26%), while hashing did not move at all and
// heap churn moved by 9%: what changes is the cost of waking the other
// thread. The simulator hands off between goroutines at every event, so a
// pass's time over the pulses around it is steady (2-8% between 3-minute
// blocks) where the time as measured is not (14-19%). The pulse allocates
// next to nothing and forces no collection, so it leaves the workload's
// heap alone.
func pulse() (ms float64) { return canaryKernel(0, 25000) }

// pulseNominalMs is what one pulse takes on the reference machine (2-core
// Xeon @ 2.10GHz, GOMAXPROCS 2) in its usual state. Normalized times are
// pulse-relative times multiplied by it, so that on the reference machine
// they read like milliseconds.
const pulseNominalMs = 10.0

// pulseGap runs pulses until they have taken at least 6% of the pass just
// measured (at least min of them, at most 64) and returns their times.
func pulseGap(passMs float64, min int) []float64 {
	var ps []float64
	var total float64
	for len(ps) < min || (total < 0.06*passMs && len(ps) < 64) {
		p := pulse()
		ps = append(ps, p)
		total += p
	}
	return ps
}

// noisy reports whether two canary readings differ by more than 5%.
func noisy(before, after float64) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo <= 0 || (hi-lo)/lo > 0.05
}

func (e envBlock) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s loadavg=%q",
		e.CPUModel, e.NProc, e.GOMAXPROCS, e.GoVersion, e.LoadAvg)
}
