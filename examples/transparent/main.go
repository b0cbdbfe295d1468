// Transparent recovery, assembled by hand: this example wires the full
// §4 stack explicitly — simulated GPUs, device-proxy servers and clients,
// interception layers, training workers, and the recovery coordinator —
// then injects a transient network fault and a sticky CUDA error. The
// "application" (the training loop) contains no checkpointing code and
// never observes either failure.
//
//	go run ./examples/transparent
package main

import (
	"fmt"
	"log"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/core"
	"jitckpt/internal/cuda"
	"jitckpt/internal/gpu"
	"jitckpt/internal/intercept"
	"jitckpt/internal/nccl"
	"jitckpt/internal/proxy"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

func main() {
	const (
		world = 4
		iters = 16
	)
	env := vclock.NewEnv(42)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	cluster := gpu.NewCluster(env, 2, 2, 1<<36)
	pool := scheduler.NewPool(env, cluster.Nodes)
	monitor := scheduler.NewMonitor(env)
	store := checkpoint.NewStore(env, "shared", checkpoint.DiskParams())
	kernels := train.Kernels()
	topo := train.Topology{D: world, P: 1, T: 1}

	// Build the per-rank stacks: worker -> interception layer -> proxy
	// client -> proxy server -> device.
	nodes, err := pool.Allocate(2, nil)
	if err != nil {
		log.Fatal(err)
	}
	placement, err := scheduler.Place(nodes, world)
	if err != nil {
		log.Fatal(err)
	}
	ranks := make([]*core.TransparentRank, world)
	coord := core.NewCoordinator(env, core.CoordinatorConfig{
		Job: "demo", Topo: topo,
		Teardown: 100 * vclock.Millisecond, Minibatch: 40 * vclock.Millisecond,
		StateBytes: 1 << 24, Store: store, Monitor: monitor, Pool: pool,
		CRIU:    scheduler.CRIU{SnapshotTime: vclock.Second, RestoreTime: 500 * vclock.Millisecond},
		Kernels: kernels, CUDAParams: cuda.DefaultParams(), ProxyParams: proxy.DefaultParams(),
		OnReport: func(rep *core.RecoveryReport) {
			fmt.Printf("  -> recovered (%s) in %v; steps:", rep.Kind, rep.Total())
			for _, ph := range rep.Phases {
				fmt.Printf(" %s=%v", ph.Name, ph.Dur)
			}
			fmt.Println()
		},
	}, ranks)

	losses := make([]float32, iters)
	for r := 0; r < world; r++ {
		server, err := proxy.NewServer(env, placement[r], engine, kernels, cuda.DefaultParams(), proxy.DefaultParams())
		if err != nil {
			log.Fatal(err)
		}
		client := proxy.NewClient(env, server)
		layer := intercept.New(env, client, fmt.Sprintf("rank%d", r), intercept.Config{
			Mode:        intercept.ModeTransparent,
			HangTimeout: 2 * vclock.Second,
			OnFault:     coord.Hook(r),
		})
		worker, err := train.NewWorker(train.Config{
			Name: fmt.Sprintf("w%d", r), JobKey: "demo", Rank: r, Topo: topo,
			Model: train.ModelSpec{Layers: 2, Hidden: 8, Seed: 1, ParamBytesPerGPU: 1 << 23, OptBytesPerGPU: 1 << 24},
			Opt:   train.DefaultOptimizer(),
			Step:  train.Uniform(40*vclock.Millisecond, 2),
			API:   layer,
			Hooks: train.Hooks{
				StartMinibatch: layer.StartMinibatch,
				PreOptimizer: func(p *vclock.Proc, iter int) {
					// §4.1: once, on every rank at the same iteration, prove
					// the replay log captures everything that shapes GPU
					// state — replay the minibatch, compare buffer checksums.
					if iter == 2 {
						res, err := layer.Validate(p)
						if r == 0 {
							fmt.Printf("replay-log validation at iter %d: %d buffers, ok=%v err=%v\n", iter, res.Buffers, res.OK, err)
						}
					}
					layer.PreOptimizerStep()
				},
				PostOptimizer: layer.PostOptimizerStep,
			},
			DataSeed: 99,
			OnLoss: func(iter int, loss float32) {
				if r != 0 {
					return
				}
				losses[iter] = loss
				// Fault injection, anchored to training progress: a
				// transient network fault inside minibatch 5, then a
				// sticky CUDA error on rank 2 inside minibatch 11.
				switch iter {
				case 4:
					env.Go("gremlin-net", func(p *vclock.Proc) {
						p.Sleep(20 * vclock.Millisecond)
						fmt.Println("injecting: transient network fault on the gradient all-reduce")
						engine.InjectFault(train.DPCommKey("demo", 0, 0), coord.Generation(), nccl.FaultHang)
					})
				case 10:
					env.Go("gremlin-gpu", func(p *vclock.Proc) {
						p.Sleep(20 * vclock.Millisecond)
						fmt.Println("injecting: sticky CUDA error on rank 2's GPU")
						placement[2].InjectSticky()
					})
				}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		ranks[r] = &core.TransparentRank{Rank: r, Layer: layer, Client: client, Server: server, Worker: worker}
	}
	coord.Start()

	// The "application": a plain training loop. No checkpoint code, no
	// failure handling — it cannot even see the device errors.
	for r := 0; r < world; r++ {
		env.Go(fmt.Sprintf("app%d", r), func(p *vclock.Proc) {
			w := ranks[r].Worker
			if err := w.Setup(p, 0); err != nil {
				log.Fatalf("rank %d setup: %v", r, err)
			}
			if err := w.RunIters(p, iters); err != nil {
				log.Fatalf("rank %d: the application saw an error, transparency broken: %v", r, err)
			}
		})
	}

	fmt.Println("Transparent just-in-time recovery demo")
	fmt.Println("======================================")
	if err := env.RunUntil(10 * vclock.Minute); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d iterations completed; the application never saw a failure.\n", iters)
	fmt.Printf("recoveries: %d\n", len(coord.Reports()))
	fmt.Println("rank 0 losses:")
	for i, l := range losses {
		fmt.Printf("  iter %2d: %.6f\n", i, l)
	}
}
