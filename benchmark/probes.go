package main

import (
	"fmt"
	"runtime"
	"time"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/core"
	"jitckpt/internal/cuda"
	"jitckpt/internal/erasure"
	"jitckpt/internal/experiments"
	"jitckpt/internal/gpu"
	"jitckpt/internal/intercept"
	"jitckpt/internal/nccl"
	"jitckpt/internal/proxy"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/tensor"
	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// A probe times calls into one layer's public API on fixed inputs. Probes
// do not depend on the workload or the seed; they are the per-layer
// numbers a change to one layer should move first.
type probe struct {
	name string
	run  func(emit func(metric string, value float64)) error
}

// bestOf returns the smallest of reps timings of fn. The minimum is the
// noise-robust estimate of a fixed computation's cost on a shared machine.
func bestOf(reps int, fn func() (time.Duration, error)) (time.Duration, error) {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}

// timeEnv runs the environment to completion and returns the host time it
// took.
func timeEnv(env *vclock.Env, limit vclock.Time) (time.Duration, error) {
	start := time.Now()
	err := env.RunUntil(limit)
	return time.Since(start), err
}

// timeProc runs body as the environment's one process and returns the host
// time the run took; body's error is the run's.
func timeProc(env *vclock.Env, limit vclock.Time, body func(p *vclock.Proc) error) (time.Duration, error) {
	var perr error
	env.Go("probe", func(p *vclock.Proc) { perr = body(p) })
	d, err := timeEnv(env, limit)
	if err == nil {
		err = perr
	}
	return d, err
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// single wraps a one-metric probe.
func single(name string, fn func() (float64, error)) probe {
	return probe{name: name, run: func(emit func(string, float64)) error {
		v, err := fn()
		if err != nil {
			return err
		}
		emit(name, v)
		return nil
	}}
}

func sleepCycle() (float64, error) {
	const n = 200000
	d, err := bestOf(3, func() (time.Duration, error) {
		env := vclock.NewEnv(1)
		env.Go("probe", func(p *vclock.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(vclock.Microsecond)
			}
		})
		return timeEnv(env, -1)
	})
	return nsPer(d, n), err
}

// newDevice builds the single-device rig the cuda, intercept and proxy
// probes share.
func newDevice(env *vclock.Env) (*gpu.Device, *nccl.Engine) {
	return gpu.NewDevice(env, 0, 0, 1<<34), nccl.NewEngine(env, nccl.DefaultParams())
}

var nopKernels = cuda.Registry{"nop": func(cuda.KernelArgs) error { return nil }}

// launchLoop issues n asynchronous nop launches through api, synchronizing
// every 256 like a training step's stream of kernels does.
func launchLoop(p *vclock.Proc, api cuda.API, n int, everyBatch func()) error {
	lp := cuda.LaunchParams{Kernel: "nop", Dur: vclock.Microsecond}
	for i := 0; i < n; i++ {
		if err := api.Launch(p, lp, cuda.DefaultStream); err != nil {
			return err
		}
		if i%256 == 255 {
			if err := api.StreamSynchronize(p, cuda.DefaultStream); err != nil {
				return err
			}
			if everyBatch != nil {
				everyBatch()
			}
		}
	}
	return api.StreamSynchronize(p, cuda.DefaultStream)
}

// driverLaunch times n launches straight into the cuda driver.
func driverLaunch(n int) (time.Duration, error) {
	return bestOf(3, func() (time.Duration, error) {
		env := vclock.NewEnv(1)
		dev, engine := newDevice(env)
		drv, err := cuda.NewDriver(dev, engine, nopKernels, cuda.DefaultParams())
		if err != nil {
			return 0, err
		}
		return timeProc(env, -1, func(p *vclock.Proc) error { return launchLoop(p, drv, n, nil) })
	})
}

// modelState builds a ModelState the size one wide_state rank checkpoints:
// layers × {param, adam m, adam v} tensors of hidden² floats.
func modelState(layers, hidden int) *train.ModelState {
	ms := &train.ModelState{Iter: 7, Rank: 0, Tensors: map[string]tensor.Vector{}}
	for l := 0; l < layers; l++ {
		for _, name := range []string{train.ParamTensorName(l), train.OptMTensorName(l), train.OptVTensorName(l)} {
			v := tensor.NewVector(hidden * hidden)
			for i := range v {
				v[i] = float32(i%251)*0.001 + float32(l)
			}
			ms.Tensors[name] = v
		}
	}
	return ms
}

// steadyRun runs a failure-free job and returns its host time and
// allocation deltas.
func steadyRun(hidden, iters int) (d time.Duration, mallocs, bytes uint64, err error) {
	wl := experiments.ChaosWorkload()
	wl.Hidden = hidden
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.Run(core.JobConfig{WL: wl, Policy: core.PolicyNone, Iters: iters, Seed: 1})
	d = time.Since(start)
	if err != nil {
		return 0, 0, 0, err
	}
	if !res.Completed {
		return 0, 0, 0, fmt.Errorf("steady run (hidden %d, %d iters) incomplete", hidden, iters)
	}
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
}

// trainProbe measures the marginal cost of one job minibatch (4 ranks)
// from the delta between a 40- and a 240-iteration failure-free run, so
// set-up costs cancel — RunBench's estimator.
func trainProbe(hidden int) (nsPerIter, allocsPerIter, bytesPerIter float64, err error) {
	const short, long = 40, 240
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		d1, m1, b1, err := steadyRun(hidden, short)
		if err != nil {
			return 0, 0, 0, err
		}
		d2, m2, b2, err := steadyRun(hidden, long)
		if err != nil {
			return 0, 0, 0, err
		}
		if d := d2 - d1; d < best {
			best = d
		}
		allocsPerIter = (float64(m2) - float64(m1)) / (long - short)
		bytesPerIter = (float64(b2) - float64(b1)) / (long - short)
	}
	return nsPer(best, long-short), allocsPerIter, bytesPerIter, nil
}

// erasureProbe times Encode and Reconstruct of 1 MiB shards for RS(k,m).
func erasureProbe(k, m int) (encode, reconstruct float64, err error) {
	const shardLen = 1 << 20
	codec, err := erasure.New(k, m)
	if err != nil {
		return 0, 0, err
	}
	payload := make([]byte, k*shardLen)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	var frags [][]byte
	d, err := bestOf(3, func() (time.Duration, error) {
		data := codec.Split(payload)
		start := time.Now()
		var err error
		frags, err = codec.Encode(data)
		return time.Since(start), err
	})
	if err != nil {
		return 0, 0, err
	}
	encode = mbps(len(payload), d)
	d, err = bestOf(3, func() (time.Duration, error) {
		// Erase m data shards: the worst case, a full matrix inversion and
		// recompute of every lost shard from parity.
		lost := append([][]byte(nil), frags...)
		for i := 0; i < m; i++ {
			lost[i] = nil
		}
		start := time.Now()
		err := codec.Reconstruct(lost)
		return time.Since(start), err
	})
	if err != nil {
		return 0, 0, err
	}
	return encode, mbps(len(payload), d), nil
}

// fleetProbe times one failure-free fleet of tenants jobs in RunBench's
// 250:150:100 policy mix and returns host milliseconds per tenant.
func fleetProbe(tenants int) (float64, error) {
	spec := fmt.Sprintf("%dxpc_disk,%dxjit+elastic,%dxuserjit", tenants/2, tenants*3/10, tenants/5)
	cfg, err := fleetConfig(1, spec)
	if err != nil {
		return 0, err
	}
	cfg.Nodes = tenants*2 + tenants/5 // RunBench's 10% headroom over 2 nodes per tenant
	runtime.GC()
	start := time.Now()
	res := fleetPass(cfg, spec, nil)
	d := time.Since(start)
	if res.failed > 0 {
		return 0, fmt.Errorf("fleet probe (%d tenants): %s", tenants, res.failures[0])
	}
	return d.Seconds() * 1000 / float64(tenants), nil
}

func probes() []probe {
	return []probe{
		single("vclock.sleep_cycle_ns", sleepCycle),
		single("vclock.sleep_cycle_p1_ns", func() (float64, error) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			return sleepCycle()
		}),
		single("vclock.event_pingpong_ns", func() (float64, error) {
			const n = 50000
			d, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				toA, toB := make([]*vclock.Event, n), make([]*vclock.Event, n)
				for i := range toA {
					toA[i], toB[i] = env.NewEvent("a"), env.NewEvent("b")
				}
				env.Go("a", func(p *vclock.Proc) {
					for i := 0; i < n; i++ {
						toB[i].Trigger()
						p.Wait(toA[i])
					}
				})
				env.Go("b", func(p *vclock.Proc) {
					for i := 0; i < n; i++ {
						p.Wait(toB[i])
						toA[i].Trigger()
					}
				})
				return timeEnv(env, -1)
			})
			return nsPer(d, 2*n), err
		}),
		single("vclock.queue_handoff_ns", func() (float64, error) {
			const n = 100000
			d, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				there, back := vclock.NewQueue[int](env, "there"), vclock.NewQueue[int](env, "back")
				env.Go("a", func(p *vclock.Proc) {
					for i := 0; i < n; i++ {
						there.Push(i)
						back.Pop(p)
					}
				})
				env.Go("b", func(p *vclock.Proc) {
					for i := 0; i < n; i++ {
						back.Push(there.Pop(p))
					}
				})
				return timeEnv(env, -1)
			})
			return nsPer(d, 2*n), err
		}),
		single("vclock.timer_heap_ns_10k", func() (float64, error) {
			const procs, sleeps = 10000, 20
			d, err := bestOf(2, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				for i := 0; i < procs; i++ {
					step := vclock.Time(1+i%97) * vclock.Microsecond
					env.Go("sleeper", func(p *vclock.Proc) {
						for s := 0; s < sleeps; s++ {
							p.Sleep(step)
						}
					})
				}
				return timeEnv(env, -1)
			})
			return nsPer(d, procs*sleeps), err
		}),
		single("vclock.spawn_ns", func() (float64, error) {
			const n = 50000
			d, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				start := time.Now()
				for i := 0; i < n; i++ {
					env.Go("leaf", func(*vclock.Proc) {})
				}
				err := env.Run()
				return time.Since(start), err
			})
			return nsPer(d, n), err
		}),
		single("cuda.launch_sync_ns", func() (float64, error) {
			const n = 100000
			d, err := driverLaunch(n)
			return nsPer(d, n), err
		}),
		single("nccl.allreduce_round_ns", func() (float64, error) {
			const ranks, rounds = 4, 20000
			d, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				engine := nccl.NewEngine(env, nccl.DefaultParams())
				var perr error
				for r := 0; r < ranks; r++ {
					r := r
					dev := gpu.NewDevice(env, 0, r, 1<<34)
					stream, err := dev.NewStream()
					if err != nil {
						return 0, err
					}
					buf, err := dev.Alloc(1<<20, 128, "g")
					if err != nil {
						return 0, err
					}
					env.Go("rank", func(p *vclock.Proc) {
						comm, err := engine.CommInitRank(p, "w", 0, ranks, r, dev)
						if err != nil {
							perr = err
							return
						}
						for i := 0; i < rounds; i++ {
							op, err := comm.AllReduce(stream, buf)
							if err != nil {
								perr = err
								return
							}
							p.Wait(op.Done)
						}
					})
				}
				d, err := timeEnv(env, -1)
				if err == nil {
					err = perr
				}
				return d, err
			})
			return nsPer(d, rounds), err
		}),
		single("nccl.comm_init_ns", func() (float64, error) {
			const ranks, inits = 8, 2000
			d, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				engine := nccl.NewEngine(env, nccl.DefaultParams())
				var perr error
				for r := 0; r < ranks; r++ {
					r := r
					dev := gpu.NewDevice(env, 0, r, 1<<34)
					env.Go("rank", func(p *vclock.Proc) {
						for g := 0; g < inits; g++ {
							comm, err := engine.CommInitRank(p, "w", g, ranks, r, dev)
							if err != nil {
								perr = err
								return
							}
							comm.Destroy()
						}
					})
				}
				d, err := timeEnv(env, -1)
				if err == nil {
					err = perr
				}
				return d, err
			})
			return nsPer(d, inits), err
		}),
		single("intercept.call_overhead_ns", func() (float64, error) {
			// The cost the transparent interception layer (virtual handles,
			// replay logging) adds to one launch: through-the-layer minus
			// straight-to-driver, same loop.
			const n = 100000
			direct, err := driverLaunch(n)
			if err != nil {
				return 0, err
			}
			layered, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				dev, engine := newDevice(env)
				drv, err := cuda.NewDriver(dev, engine, nopKernels, cuda.DefaultParams())
				if err != nil {
					return 0, err
				}
				layer := intercept.New(env, drv, "rank0", intercept.Config{
					Mode: intercept.ModeTransparent, LogReplay: true,
					OnFault: func(*vclock.Proc, intercept.Fault) {},
				})
				// The watchdog process never exits on its own; bound the run.
				return timeProc(env, vclock.Hour, func(p *vclock.Proc) error {
					iter := 0
					layer.StartMinibatch(iter)
					defer layer.StopWatchdog()
					return launchLoop(p, layer, n, func() { iter++; layer.StartMinibatch(iter) })
				})
			})
			return nsPer(layered-direct, n), err
		}),
		single("proxy.rpc_roundtrip_ns", func() (float64, error) {
			const n = 4000
			d, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				dev, engine := newDevice(env)
				server, err := proxy.NewServer(env, dev, engine, nil, cuda.DefaultParams(), proxy.DefaultParams())
				if err != nil {
					return 0, err
				}
				client := proxy.NewClient(env, server)
				return timeProc(env, vclock.Hour, func(p *vclock.Proc) error {
					defer server.Stop()
					ev, err := client.EventCreate(p)
					if err != nil {
						return err
					}
					for i := 0; i < n; i++ {
						if _, err := client.EventQuery(p, ev); err != nil {
							return err
						}
					}
					return nil
				})
			})
			return nsPer(d, n), err
		}),
		single("proxy.launch_ns", func() (float64, error) {
			const n = 4000
			d, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				dev, engine := newDevice(env)
				server, err := proxy.NewServer(env, dev, engine, nopKernels, cuda.DefaultParams(), proxy.DefaultParams())
				if err != nil {
					return 0, err
				}
				client := proxy.NewClient(env, server)
				return timeProc(env, vclock.Hour, func(p *vclock.Proc) error {
					defer server.Stop()
					return launchLoop(p, client, n, nil)
				})
			})
			return nsPer(d, n), err
		}),
		{name: "train.iter", run: func(emit func(string, float64)) error {
			ns, allocs, bytes, err := trainProbe(8)
			if err != nil {
				return err
			}
			emit("train.iter_ns_h8", ns)
			emit("train.allocs_per_iter", allocs)
			emit("train.bytes_per_iter", bytes)
			ns, _, _, err = trainProbe(128)
			if err != nil {
				return err
			}
			emit("train.iter_ns_h128", ns)
			return nil
		}},
		{name: "train.state_codec", run: func(emit func(string, float64)) error {
			ms := modelState(4, 128)
			var blob []byte
			d, err := bestOf(5, func() (time.Duration, error) {
				start := time.Now()
				var err error
				blob, err = ms.Encode()
				return time.Since(start), err
			})
			if err != nil {
				return err
			}
			emit("train.state_encode_mbps", mbps(len(blob), d))
			d, err = bestOf(5, func() (time.Duration, error) {
				start := time.Now()
				_, err := train.DecodeModelState(blob)
				return time.Since(start), err
			})
			if err != nil {
				return err
			}
			emit("train.state_decode_mbps", mbps(len(blob), d))
			return nil
		}},
		{name: "checkpoint.rank_io", run: func(emit func(string, float64)) error {
			// Write then read back one Hidden-128 rank checkpoint, 40 times:
			// real bytes per host second through encode + FNV + commit, and
			// through read + FNV verify + decode.
			const n = 40
			ms := modelState(4, 128)
			blob, err := ms.Encode()
			if err != nil {
				return err
			}
			// The read runs read back what the last write run left in store;
			// a finished run's store is plain data, so a fresh environment
			// can read it.
			var store *checkpoint.Store
			dir := func(i int) string { return checkpoint.RankDir("probe", "pc", i, 0) }
			writeD, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				store = checkpoint.NewStore(env, "disk", checkpoint.DiskParams())
				return timeProc(env, -1, func(p *vclock.Proc) error {
					for i := 0; i < n; i++ {
						if err := checkpoint.WriteRank(p, store, dir(i), ms, 1<<20); err != nil {
							return err
						}
					}
					return nil
				})
			})
			if err != nil {
				return err
			}
			readD, err := bestOf(3, func() (time.Duration, error) {
				return timeProc(vclock.NewEnv(1), -1, func(p *vclock.Proc) error {
					for i := 0; i < n; i++ {
						if _, err := checkpoint.ReadRank(p, store, dir(i)); err != nil {
							return err
						}
					}
					return nil
				})
			})
			if err != nil {
				return err
			}
			emit("checkpoint.write_rank_mbps", mbps(n*len(blob), writeD))
			emit("checkpoint.read_rank_mbps", mbps(n*len(blob), readD))
			return nil
		}},
		{name: "erasure.codec", run: func(emit func(string, float64)) error {
			enc, rec, err := erasureProbe(4, 2)
			if err != nil {
				return err
			}
			emit("erasure.encode_mbps_k4m2", enc)
			emit("erasure.reconstruct_mbps_k4m2", rec)
			enc, _, err = erasureProbe(2, 1)
			if err != nil {
				return err
			}
			emit("erasure.encode_mbps_k2m1", enc)
			return nil
		}},
		{name: "trace.record", run: func(emit func(string, float64)) error {
			const n = 200000
			record := func(retain bool) (time.Duration, error) {
				return bestOf(3, func() (time.Duration, error) {
					rec := trace.New()
					rec.SetRetain(retain)
					start := time.Now()
					for i := 0; i < n; i++ {
						rec.Instant(vclock.Time(i), "train", "rank0", "iter", "it", i, "gen", 1)
					}
					return time.Since(start), nil
				})
			}
			d, err := record(true)
			if err != nil {
				return err
			}
			emit("trace.record_ns", nsPer(d, n))
			d, err = record(false)
			if err != nil {
				return err
			}
			emit("trace.record_noretain_ns", nsPer(d, n))
			return nil
		}},
		{name: "tracestream.ingest", run: func(emit func(string, float64)) error {
			// Hand-built events, numbered the way a Recorder numbers them:
			// one run span, then begin/end pairs of a training iteration.
			const pairs = 100000
			var st *tracestream.Stream
			d, err := bestOf(3, func() (time.Duration, error) {
				st = tracestream.New(tracestream.Options{})
				seq := uint64(1)
				st.Event(&trace.Ev{T: 0, Seq: seq, Run: 1, Ph: 'B', Cat: "core", Lane: trace.LaneSim, Name: "run",
					Args: []trace.Arg{{K: "job", V: "probe"}, {K: "policy", V: "UserJIT"}, {K: "gpus", V: "4"}, {K: "iters", V: "10"}}})
				var now vclock.Time
				start := time.Now()
				for i := 0; i < pairs; i++ {
					now += 150
					seq++
					begin := seq
					st.Event(&trace.Ev{T: now, Seq: seq, Run: 1, Ph: 'B', Cat: "train", Lane: "rank0", Name: "iter"})
					now += 100
					seq++
					st.Event(&trace.Ev{T: now, Seq: seq, Run: 1, Ph: 'E', Cat: "train", Lane: "rank0", Name: "iter", Ref: begin})
				}
				return time.Since(start), nil
			})
			if err != nil {
				return err
			}
			emit("tracestream.ingest_ns", nsPer(d, 2*pairs))
			const snaps = 2000
			start := time.Now()
			for i := 0; i < snaps; i++ {
				st.Metrics()
			}
			emit("tracestream.metrics_snapshot_us", nsPer(time.Since(start), snaps)/1000)
			return nil
		}},
		single("scheduler.alloc_ns", func() (float64, error) {
			// Allocate and release 2 nodes on a 1100-node pool with half of
			// it leased: the fleet arbiter's steady-state request.
			const n = 100000
			d, err := bestOf(3, func() (time.Duration, error) {
				env := vclock.NewEnv(1)
				pool := scheduler.NewPool(env, gpu.NewCluster(env, 1100, 2, 1<<40).Nodes)
				if _, err := pool.Allocate(550, nil); err != nil {
					return 0, err
				}
				start := time.Now()
				for i := 0; i < n; i++ {
					nodes, err := pool.Allocate(2, nil)
					if err != nil {
						return 0, err
					}
					pool.Release(nodes)
				}
				return time.Since(start), nil
			})
			return nsPer(d, n), err
		}),
		{name: "cluster.scale", run: func(emit func(string, float64)) error {
			ms100, err := fleetProbe(100)
			if err != nil {
				return err
			}
			ms500, err := fleetProbe(500)
			if err != nil {
				return err
			}
			emit("cluster.job_ms_100", ms100)
			emit("cluster.job_ms_500", ms500)
			emit("cluster.scale_ratio", ms500/ms100)
			return nil
		}},
		single("core.run_fixed_ms", func() (float64, error) {
			// A 1-iteration failure-free job: what every run pays before
			// its first minibatch (cluster, engine, workers, communicators).
			wl := experiments.ChaosWorkload()
			times := make([]float64, 0, 20)
			for i := 0; i < 20; i++ {
				start := time.Now()
				res, err := core.Run(core.JobConfig{WL: wl, Policy: core.PolicyNone, Iters: 1, Seed: 1})
				if err != nil {
					return 0, err
				}
				if !res.Completed {
					return 0, fmt.Errorf("1-iteration run incomplete")
				}
				times = append(times, time.Since(start).Seconds()*1000)
			}
			return median(times), nil
		}),
	}
}

// runProbes runs every probe under its own span and collects the metrics.
// A probe that fails is reported and leaves its metrics at 0.
func runProbes(t *tracer) (map[string]float64, []string) {
	values := map[string]float64{}
	var failures []string
	for _, pr := range probes() {
		pr := pr
		t.span("probe/"+pr.name, func() {
			if err := pr.run(func(metric string, v float64) { values[metric] = v }); err != nil {
				failures = append(failures, fmt.Sprintf("probe %s: %v", pr.name, err))
			}
		})
	}
	return values, failures
}
