// Transparent recovery: a 4-GPU data-parallel job runs under
// PolicyTransparentJIT — every rank's training loop talks to its GPU
// through an interception layer and a device proxy, and contains no
// checkpointing code. Each rank proves its §4.1 replay log at iteration 2;
// then a transient network fault and a sticky CUDA error strike, and both
// are repaired underneath the application, which never observes either.
//
//	go run ./examples/transparent
package main

import (
	"fmt"
	"log"

	"jitckpt/internal/core"
	"jitckpt/internal/failure"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

func main() {
	wl := workload.Tiny("transparent-demo", "DDP", 2, 2, train.Topology{D: 4, P: 1, T: 1}, 0.004, 2, 8)
	const iters = 16
	res, err := core.Run(core.JobConfig{
		WL: wl, Policy: core.PolicyTransparentJIT, Iters: iters, Seed: 42, CollectLoss: true,
		HangTimeout: 2 * vclock.Second,
		ValidateAt:  2,
		IterFailures: []core.IterInjection{
			// A transient hang on the gradient all-reduce inside minibatch
			// 4, then a sticky CUDA error on rank 2's GPU inside minibatch 10.
			{Iter: 4, Frac: 0.5, Rank: 0, Kind: failure.NetworkHang},
			{Iter: 10, Frac: 0.5, Rank: 2, Kind: failure.GPUSticky},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Transparent just-in-time recovery demo")
	fmt.Println("======================================")
	fmt.Printf("replay-log validation at iter 2: %d of %d ranks ok, %d failed\n",
		res.Validations, wl.Topo.World(), res.ValidationFailures)
	if !res.Completed || res.ValidationFailures > 0 {
		log.Fatalf("transparency broken: completed=%v validation failures=%d", res.Completed, res.ValidationFailures)
	}
	// The hang leaves every GPU healthy (strategy 1: buffers retained); the
	// sticky error costs rank 2 its device state, copied back from a
	// data-parallel replica — the failed-rank column.
	for i, rep := range res.Reports {
		fmt.Printf("episode %d (%s): %v end to end; healthy-rank work %v, failed-rank work %v\n",
			i+1, rep.Kind, rep.Total(), rep.HealthyAvg, rep.FailedAvg)
		fmt.Print("  healthy-rank steps:")
		for _, ph := range rep.Phases {
			fmt.Printf(" %s=%v", ph.Name, ph.Dur)
		}
		fmt.Println()
	}
	fmt.Printf("\n%d iterations completed; the application never saw a failure.\n", iters)
	fmt.Print("loss tail:")
	for it := iters - 4; it < iters; it++ {
		fmt.Printf(" [%d]=%.6f", it, res.Loss[it])
	}
	fmt.Println()
}
