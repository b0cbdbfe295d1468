package core_test

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"jitckpt/internal/analysis"
	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/metrics"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// printTable prints a rendered table without its trailing blanks, which an
// example's checked output cannot hold.
func printTable(t *metrics.Table) {
	for _, line := range strings.Split(t.Render(), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// A 4-GPU data-parallel job with user-level just-in-time checkpointing
// loses a GPU mid-training (Figure 1). Healthy replicas checkpoint just in
// time, the job redoes exactly one minibatch, and its loss trajectory
// matches the failure-free run bit for bit (§6).
func ExampleRun() {
	// 4 GPUs on 2 nodes, 50 ms minibatches, Adam. Any Table 2 workload
	// works the same way.
	wl := workload.Workload{
		Name: "quickstart", GPU: "A100-80GB", ParamsB: 0.01, Nodes: 2, PerNode: 2,
		Topo:       train.Topology{D: 4, P: 1, T: 1},
		Minibatch:  50 * vclock.Millisecond,
		CkptTarget: vclock.Seconds(0.5), RestoreTarget: vclock.Seconds(1),
		NCCLInitBase: 200 * vclock.Millisecond, NCCLInitPerRank: 5 * vclock.Millisecond,
		Teardown: 100 * vclock.Millisecond, CRIU: vclock.Second,
		Layers: 2, Hidden: 8,
	}
	const iters = 20

	// Reference: the same job with no failures.
	ref, err := core.Run(core.JobConfig{
		WL: wl, Policy: core.PolicyUserJIT, Iters: iters, Seed: 7, CollectLoss: true,
	})
	if err != nil || !ref.Completed {
		fmt.Println("reference run failed:", err)
		return
	}
	// The real run: rank 3's GPU dies hard in the middle of minibatch 10.
	res, err := core.Run(core.JobConfig{
		WL: wl, Policy: core.PolicyUserJIT, Iters: iters, Seed: 7, CollectLoss: true,
		SpareNodes:   1,
		HangTimeout:  2 * vclock.Second,
		IterFailures: []core.IterInjection{{Iter: 10, Frac: 0.5, Rank: 3, Kind: failure.GPUHard}},
	})
	if err != nil || !res.Completed {
		fmt.Println("run failed:", err)
		return
	}

	fmt.Printf("JIT checkpoint: %v, restore: %v\n", res.JITCheckpointTime, res.RestoreTime)
	fmt.Printf("incarnations: %d, minibatches redone: %d\n", res.Incarnations, res.ItersExecuted-iters)
	var its []int
	for it := range ref.Loss {
		its = append(its, it)
	}
	sort.Ints(its)
	exact := true
	for _, it := range its {
		exact = exact && math.Float32bits(ref.Loss[it]) == math.Float32bits(res.Loss[it])
	}
	for _, it := range its[8:13] {
		fmt.Printf("iter %2d: %.6f %.6f\n", it, ref.Loss[it], res.Loss[it])
	}
	fmt.Println("exact floating-point match over all", len(its), "iterations:", exact)
	// Output:
	// JIT checkpoint: 0.504s, restore: 1.005s
	// incarnations: 2, minibatches redone: 1
	// iter  8: 0.135812 0.135812
	// iter  9: 0.085891 0.085891
	// iter 10: 0.116662 0.116662
	// iter 11: 0.130094 0.130094
	// iter 12: 0.062887 0.062887
	// exact floating-point match over all 20 iterations: true
}

// A 2-node, 8-GPU, 3D-parallel (2D-2P-2T) job loses a GPU to a hard
// failure under transparent JIT (§4.3). Healthy ranks checkpoint their GPU
// state just in time, every worker's CPU state is captured CRIU-style, and
// the job migrates to spare nodes; the dead GPU's rank reads its
// data-parallel replica's file through the stable tensor naming.
func ExampleRun_hardError() {
	wl := workload.Workload{
		Name: "harderror-3d", GPU: "V100-32GB", ParamsB: 0.05, Nodes: 2, PerNode: 4,
		Topo:       train.Topology{D: 2, P: 2, T: 2},
		Minibatch:  80 * vclock.Millisecond,
		CkptTarget: vclock.Seconds(0.8), RestoreTarget: vclock.Seconds(2),
		NCCLInitBase: 300 * vclock.Millisecond, NCCLInitPerRank: 10 * vclock.Millisecond,
		Teardown: 150 * vclock.Millisecond, CRIU: 3 * vclock.Second,
		Layers: 4, Hidden: 8,
	}
	const iters = 14
	const victim = 5 // rank (d1, p0, t1): its replica is rank 1 (d0, p0, t1)
	res, err := core.Run(core.JobConfig{
		WL: wl, Policy: core.PolicyTransparentJIT, Iters: iters, Seed: 3, CollectLoss: true,
		SpareNodes:   2,
		HangTimeout:  2 * vclock.Second,
		IterFailures: []core.IterInjection{{Iter: 7, Frac: 0.5, Rank: victim, Kind: failure.GPUHard}},
	})
	if err != nil || !res.Completed {
		fmt.Println("run failed:", err)
		return
	}

	d, p, t := wl.Topo.Coords(victim)
	fmt.Printf("rank %d (d=%d, p=%d, t=%d) lost its GPU; replicas %v\n", victim, d, p, t, wl.Topo.ReplicaRanks(victim))
	for _, rep := range res.Reports {
		fmt.Printf("recovery %s: %v end to end, healthy ranks %v, failed rank %v\n", rep.Kind, rep.Total(), rep.HealthyAvg, rep.FailedAvg)
		for _, ph := range rep.Phases {
			fmt.Printf("  %-18s %v\n", ph.Name, ph.Dur)
		}
	}
	fmt.Printf("completed %d minibatches in %v; loss tail:", iters, res.WallTime)
	for it := iters - 3; it < iters; it++ {
		fmt.Printf(" %.6f", res.Loss[it])
	}
	fmt.Println()
	// Output:
	// rank 5 (d=1, p=0, t=1) lost its GPU; replicas [1]
	// recovery hard: 5.745s end to end, healthy ranks 5.563s, failed rank 4.759s
	//   jit-checkpoint     0.804s
	//   criu-snapshot      2.000s
	//   criu-restore       1.000s
	//   reset-buffers      0.000s
	//   recreate-handles   0.000s
	//   comm-init          1.340s
	//   restore-state      0.419s
	//   replay             0.000s
	// completed 14 minibatches in 8.246s; loss tail: 0.175231 0.184259 0.117124
}

// Just-in-time against periodic checkpointing, two ways: the same GPU
// failure under four policies, and the §5 model's wasted-GPU-time fractions
// across cluster sizes (the Table 8 trend).
func ExampleRun_comparison() {
	wl := workload.Workload{
		Name: "compare", GPU: "A100-80GB", ParamsB: 0.02, Nodes: 2, PerNode: 2,
		Topo:       train.Topology{D: 4, P: 1, T: 1},
		Minibatch:  60 * vclock.Millisecond,
		CkptTarget: vclock.Seconds(0.6), RestoreTarget: vclock.Seconds(1.2),
		NCCLInitBase: 200 * vclock.Millisecond, NCCLInitPerRank: 5 * vclock.Millisecond,
		Teardown: 100 * vclock.Millisecond, CRIU: vclock.Second,
		Layers: 2, Hidden: 8,
	}
	const iters = 30
	tbl := metrics.NewTable("", "Policy", "Completed", "Minibatches redone", "Restarts", "Wall time")
	for _, pol := range []core.Policy{core.PolicyPCDisk, core.PolicyUserJIT, core.PolicyJITWithDaily, core.PolicyTransparentJIT} {
		cfg := core.JobConfig{
			WL: wl, Policy: pol, Iters: iters, Seed: 11,
			SpareNodes:   1,
			HangTimeout:  2 * vclock.Second,
			IterFailures: []core.IterInjection{{Iter: 24, Frac: 0.5, Rank: 3, Kind: failure.GPUHard}},
		}
		if pol == core.PolicyPCDisk || pol == core.PolicyJITWithDaily {
			// A periodic checkpoint every 10 minibatches: PC_disk rolls back
			// from the failure at 24 to the checkpoint at ~20; for the
			// combined policy the JIT checkpoint wins.
			cfg.CkptInterval = 10 * wl.Minibatch
		}
		res, err := core.Run(cfg)
		if err != nil {
			fmt.Println(pol, err)
			return
		}
		tbl.Row(pol.String(), res.Completed, res.ItersExecuted-iters, res.Incarnations-1, res.WallTime)
	}
	printTable(tbl)

	// The §5 model at scale, BERT-L-PT constants.
	base := analysis.Params{O: 5, R: 9.9, M: 0.418, F: analysis.PerDay(2.0 / 992)}
	at := metrics.NewTable("", "N", "c* interval", "wf Periodic", "wf UserJIT", "wf TransparentJIT", "Periodic/JIT")
	for _, sc := range analysis.ScaleModel(base, []int{4, 64, 1024, 8192, 65536}) {
		at.Row(sc.N, fmt.Sprintf("%.0f min", 60/sc.CStarPerHour),
			fmt.Sprintf("%.3f%%", 100*sc.WfPeriodic),
			fmt.Sprintf("%.3f%%", 100*sc.WfUserJIT),
			fmt.Sprintf("%.3f%%", 100*sc.WfTransparentJIT),
			fmt.Sprintf("%.1fx", sc.WfPeriodic/sc.WfUserJIT))
	}
	printTable(at)
	fmt.Println("user-level JIT beats optimally tuned periodic checkpointing from N =", max(analysis.CrossoverN(base, 1<<22), 1))
	// Output:
	// Policy            Completed  Minibatches redone  Restarts  Wall time
	// ----------------  ---------  ------------------  --------  ---------
	// PC_disk           true       11                  1         9.81
	// UserJIT           true       1                   1         8.05
	// UserJIT+PC_1/day  true       1                   1         8.55
	// TransparentJIT    true       0                   0         4.84
	//
	// N      c* interval  wf Periodic  wf UserJIT  wf TransparentJIT  Periodic/JIT
	// -----  -----------  -----------  ----------  -----------------  ------------
	// 4      173 min      0.097%       0.000%      0.000%             911.2x
	// 64     43 min       0.386%       0.002%      0.000%             254.0x
	// 1024   11 min       1.545%       0.024%      0.000%             64.0x
	// 8192   4 min        4.362%       0.193%      0.004%             22.6x
	// 65536  1 min        12.189%      1.522%      0.032%             8.0x
	//
	// user-level JIT beats optimally tuned periodic checkpointing from N = 1
}
