// Hard-error migration: a 2-node, 8-GPU, 3D-parallel (2D-2P-2T) job loses
// a GPU to an unrecoverable hardware failure. Healthy ranks checkpoint
// their GPU state just in time, every worker's CPU state is captured
// CRIU-style, the job migrates to spare nodes, and GPU state is rebuilt
// from the replay log plus the checkpoint files — the dead GPU's rank
// reading its data-parallel replica's file via the stable tensor naming.
//
//	go run ./examples/harderror
package main

import (
	"fmt"
	"log"
	"os"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/trace"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

func main() {
	wl := workload.Workload{
		Name: "harderror-3d", GPU: "V100-32GB", ParamsB: 0.05, Nodes: 2, PerNode: 4,
		Topo:       train.Topology{D: 2, P: 2, T: 2}, // 8 ranks
		Minibatch:  80 * vclock.Millisecond,
		CkptTarget: vclock.Seconds(0.8), RestoreTarget: vclock.Seconds(2),
		NCCLInitBase: 300 * vclock.Millisecond, NCCLInitPerRank: 10 * vclock.Millisecond,
		Teardown: 150 * vclock.Millisecond, CRIU: 3 * vclock.Second,
		Layers: 4, Hidden: 8,
	}
	const iters = 14
	const victim = 5 // rank (d1, p0, t1): its replica is rank 1 (d0, p0, t1)

	cfg := core.JobConfig{
		WL: wl, Policy: core.PolicyTransparentJIT, Iters: iters, Seed: 3, CollectLoss: true,
		SpareNodes:   2,
		HangTimeout:  2 * vclock.Second,
		IterFailures: []core.IterInjection{{Iter: 7, Frac: 0.5, Rank: victim, Kind: failure.GPUHard}},
	}
	if len(os.Args) > 1 && os.Args[1] == "-trace" {
		cfg.Recorder = trace.New()
	}
	res, err := core.Run(cfg)
	if cfg.Recorder != nil {
		trace.WriteText(os.Stderr, cfg.Recorder)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Hard-error migration demo (2D-2P-2T, 8 GPUs, 2 nodes + 2 spares)")
	fmt.Println("================================================================")
	d, p, t := wl.Topo.Coords(victim)
	fmt.Printf("rank %d (d=%d, p=%d, t=%d) lost its GPU at minibatch 7.\n", victim, d, p, t)
	fmt.Printf("replica ranks holding identical state: %v\n\n", wl.Topo.ReplicaRanks(victim))
	if !res.Completed {
		log.Fatalf("job did not complete (reports=%d)", len(res.Reports))
	}
	for _, rep := range res.Reports {
		fmt.Printf("recovery kind:       %s\n", rep.Kind)
		fmt.Printf("end-to-end:          %v\n", rep.Total())
		fmt.Printf("healthy-rank work:   %v (JIT checkpoint + CRIU + rebuild)\n", rep.HealthyAvg)
		fmt.Printf("failed-rank work:    %v (no GPU state to save; reads replica's file)\n", rep.FailedAvg)
		fmt.Println("healthy-rank steps:")
		for _, ph := range rep.Phases {
			fmt.Printf("  %-18s %v\n", ph.Name, ph.Dur)
		}
	}
	fmt.Printf("\njob completed %d minibatches in %v; loss tail:", iters, res.WallTime)
	for it := iters - 3; it < iters; it++ {
		fmt.Printf(" [%d]=%.6f", it, res.Loss[it])
	}
	fmt.Println()
	fmt.Println("\n(run with -trace to print the recovery's event timeline on stderr)")
}
