package train

import (
	"fmt"

	"jitckpt/internal/cuda"
	"jitckpt/internal/tensor"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Hooks are the framework callbacks the interception layer needs (§4.2.2:
// "pre-optimizer-step and post-optimizer-step callback hooks in the ML
// framework"), plus the minibatch boundary that rolls the replay log.
type Hooks struct {
	StartMinibatch func(iter int)
	// PreOptimizer receives the worker's process and the iteration: the
	// interception layer's §4.1 validation runs here (it must execute in
	// the worker's own thread, at the end of backward, on every rank at
	// the same iteration).
	PreOptimizer  func(p *vclock.Proc, iter int)
	PostOptimizer func()
}

// Config configures one worker rank.
type Config struct {
	// Name is a diagnostic label; JobKey prefixes communicator keys.
	Name   string
	JobKey string
	Rank   int
	Topo   Topology
	Model  ModelSpec
	Opt    OptimizerSpec
	Step   StepTime
	// API is the device API the worker programs against: a local driver,
	// a proxy client, or an interception layer — the worker cannot tell.
	API   cuda.API
	Hooks Hooks
	// DataSeed drives the synthetic dataset.
	DataSeed uint64
	// Accum is the gradient-accumulation factor: each RunIter executes
	// Accum microbatches, accumulating local gradients, and performs one
	// data-parallel all-reduce and optimizer step over the sum. 0 or 1
	// means the plain single-microbatch step. Elastic degraded mode sets
	// Accum = D_full/D_degraded so the global batch (and therefore the
	// step semantics) is preserved at reduced width: iteration i consumes
	// exactly the samples [i*D*Accum, (i+1)*D*Accum).
	Accum int
	// GIL, when set, is held across each minibatch's device calls —
	// reproducing the interpreter-lock behaviour (§3.2, including the
	// footnote's "violations of best practice") that the user-level
	// checkpoint path must work around.
	GIL *vclock.Mutex
	// OnLoss receives the minibatch loss (last pipeline stage only).
	OnLoss func(iter int, loss float32)
}

// layerState holds the device buffers of one locally-owned layer.
type layerState struct {
	global int // global layer index
	rows   int // owned weight rows (shard height)
	rowOff int

	w, g, m, v cuda.Buf // weight shard, gradient shard, optimizer state
	gacc       cuda.Buf // accumulated gradient across microbatches (Accum > 1)
	zFull      cuda.Buf // pre-activation, full width
	dzFull     cuda.Buf
	zPart      cuda.Buf // TP only: this rank's pre-activation rows
	dzPart     cuda.Buf
	wFull      cuda.Buf // FSDP only: allgathered weights
	gFull      cuda.Buf // FSDP only: full gradient before reduce-scatter

	// Prebuilt launch parameters for this layer's kernels, constructed once
	// by buildLaunchParams so steady-state iterations reuse the argument
	// slices instead of allocating fresh ones per launch. Safe because every
	// device API captures argument values at call time; only the optimizer
	// entry mutates (learning rate, Adam step count), in place.
	fwdLin, fwdAct          cuda.LaunchParams
	bwdAct, bwdSlice        cuda.LaunchParams
	bwdDw, bwdDx            cuda.LaunchParams
	accSeed, accAdd, accOut cuda.LaunchParams
	opt                     cuda.LaunchParams
}

// Worker is one training rank: it owns that rank's buffers, streams and
// communicators, and runs the minibatch loop.
type Worker struct {
	cfg     Config
	d, p, t int

	layers []*layerState
	acts   []cuda.Buf // activation chain, len(layers)+1
	dacts  []cuda.Buf
	yBuf   cuda.Buf
	lossB  cuda.Buf

	compute cuda.Stream
	comm    cuda.Stream
	bwdEv   cuda.Event // backward-done, waited on by the comm stream
	arEv    cuda.Event // allreduce-done, waited on by the compute stream

	dpComm    cuda.Comm // plain DP gradient group
	tpComm    cuda.Comm
	ppComm    cuda.Comm
	fsComm    cuda.Comm // FSDP within-group shard comm
	frComm    cuda.Comm // FSDP cross-group replica comm
	worldComm cuda.Comm // all ranks: the pre-optimizer flush barrier
	normBuf   cuda.Buf  // global grad-norm scalar

	lossLP             cuda.LaunchParams // mse.loss (last stage only)
	ds                 Dataset
	xScratch, yScratch tensor.Vector // reused sample buffers
	rankLane           string        // trace lane label, computed once

	gradRing *GradRing // bounded retained-gradient ring (multi-step ckpt)

	gen   int // communicator generation currently in use
	iter  int // next minibatch to execute
	ready bool
}

// NewWorker validates the configuration and returns an un-setup worker.
func NewWorker(cfg Config) (*Worker, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model.Layers%cfg.Topo.P != 0 {
		return nil, fmt.Errorf("train: %d layers not divisible by %d pipeline stages", cfg.Model.Layers, cfg.Topo.P)
	}
	if cfg.Topo.T > 1 && cfg.Model.Hidden%cfg.Topo.T != 0 {
		return nil, fmt.Errorf("train: hidden %d not divisible by T=%d", cfg.Model.Hidden, cfg.Topo.T)
	}
	if cfg.Topo.FSDP() && cfg.Model.Hidden%cfg.Topo.FSDPShard != 0 {
		return nil, fmt.Errorf("train: hidden %d not divisible by FSDP shard %d", cfg.Model.Hidden, cfg.Topo.FSDPShard)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Topo.World() {
		return nil, fmt.Errorf("train: rank %d out of world %d", cfg.Rank, cfg.Topo.World())
	}
	w := &Worker{cfg: cfg}
	w.d, w.p, w.t = cfg.Topo.Coords(cfg.Rank)
	w.rankLane = trace.Rank(cfg.Rank)
	return w, nil
}

// Rank returns the worker's global rank.
func (w *Worker) Rank() int { return w.cfg.Rank }

// Iter returns the next minibatch iteration to execute.
func (w *Worker) Iter() int { return w.iter }

// SetIter overrides the next iteration (restore paths).
func (w *Worker) SetIter(i int) { w.iter = i }

// IsLastStage reports whether this rank computes the loss.
func (w *Worker) IsLastStage() bool { return w.p == w.cfg.Topo.P-1 }

// localLayerCount returns layers per pipeline stage.
func (w *Worker) localLayerCount() int { return w.cfg.Model.Layers / w.cfg.Topo.P }

// shard returns this rank's weight-shard geometry.
func (w *Worker) shard() (rows, rowOff int) {
	h := w.cfg.Model.Hidden
	switch {
	case w.cfg.Topo.T > 1:
		rows = h / w.cfg.Topo.T
		return rows, w.t * rows
	case w.cfg.Topo.FSDP():
		rows = h / w.cfg.Topo.FSDPShard
		s := w.d % w.cfg.Topo.FSDPShard
		return rows, s * rows
	default:
		return h, 0
	}
}

// Setup creates communicators (under generation gen), allocates all device
// buffers, and loads the deterministic initial parameters. It must run in
// the worker's process. Re-invoking Setup after a full restart is the
// user-level job-initialization path.
func (w *Worker) Setup(p *vclock.Proc, gen int) error {
	cfg := w.cfg
	api := cfg.API
	topo := cfg.Topo
	w.gen = gen

	// Communicators, in an order uniform across ranks so rendezvous
	// waves cannot deadlock. The world communicator carries the global
	// gradient-norm all-reduce that real frameworks run before the
	// optimizer (Megatron's clip_grad_norm): it is the whole-job barrier
	// that guarantees either no rank has entered the optimizer step or
	// every rank's gradients are fully synchronized — the invariant the
	// §3.3 checkpoint-consistency argument rests on.
	var err error
	if topo.World() > 1 {
		if w.worldComm, err = api.CommInit(p, cfg.JobKey+".world", gen, topo.World(), cfg.Rank); err != nil {
			return fmt.Errorf("train: world comm: %w", err)
		}
	}
	if topo.FSDP() {
		k := topo.FSDPShard
		g, s := w.d/k, w.d%k
		if w.fsComm, err = api.CommInit(p, FSDPShardCommKey(cfg.JobKey, g, w.p), gen, k, s); err != nil {
			return fmt.Errorf("train: fsdp shard comm: %w", err)
		}
		if topo.FSDPGroups() > 1 {
			if w.frComm, err = api.CommInit(p, FSDPRepCommKey(cfg.JobKey, s, w.p), gen, topo.FSDPGroups(), g); err != nil {
				return fmt.Errorf("train: fsdp replica comm: %w", err)
			}
		}
	} else if topo.D > 1 {
		if w.dpComm, err = api.CommInit(p, DPCommKey(cfg.JobKey, w.p, w.t), gen, topo.D, w.d); err != nil {
			return fmt.Errorf("train: dp comm: %w", err)
		}
	}
	if topo.T > 1 {
		if w.tpComm, err = api.CommInit(p, TPCommKey(cfg.JobKey, w.d, w.p), gen, topo.T, w.t); err != nil {
			return fmt.Errorf("train: tp comm: %w", err)
		}
	}
	if topo.P > 1 {
		if w.ppComm, err = api.CommInit(p, PPCommKey(cfg.JobKey, w.d, w.t), gen, topo.P, w.p); err != nil {
			return fmt.Errorf("train: pp comm: %w", err)
		}
	}

	if w.compute, err = api.StreamCreate(p); err != nil {
		return err
	}
	if w.comm, err = api.StreamCreate(p); err != nil {
		return err
	}
	if w.bwdEv, err = api.EventCreate(p); err != nil {
		return err
	}
	if w.arEv, err = api.EventCreate(p); err != nil {
		return err
	}

	if err := w.allocBuffers(p); err != nil {
		return err
	}
	w.buildLaunchParams()
	if err := w.initParams(p); err != nil {
		return err
	}
	if err := api.StreamSynchronize(p, w.compute); err != nil {
		return err
	}
	w.ready = true
	return nil
}

// allocBuffers allocates every device buffer this rank owns.
func (w *Worker) allocBuffers(p *vclock.Proc) error {
	cfg := w.cfg
	api := cfg.API
	h := cfg.Model.Hidden
	n := w.localLayerCount()
	rows, rowOff := w.shard()

	paramBytes := cfg.Model.ParamBytesPerGPU / int64(n)
	optBytes := cfg.Model.OptBytesPerGPU / int64(n)
	if cfg.Opt.Kind == Adam {
		optBytes /= 2
	}
	actBytes := cfg.Model.ParamBytesPerGPU / int64(4*(n+1))
	if actBytes <= 0 {
		actBytes = 1 << 10
	}

	alloc := func(bytes int64, elems int, tag string) (cuda.Buf, error) {
		b, err := api.Malloc(p, bytes, elems, tag)
		if err != nil {
			return 0, fmt.Errorf("train: alloc %s: %w", tag, err)
		}
		return b, nil
	}

	for li := 0; li < n; li++ {
		gl := w.p*n + li
		ls := &layerState{global: gl, rows: rows, rowOff: rowOff}
		var err error
		if ls.w, err = alloc(paramBytes, rows*h, fmt.Sprintf("%sL%d.w", TagParamPrefix, gl)); err != nil {
			return err
		}
		if ls.g, err = alloc(paramBytes, rows*h, fmt.Sprintf("%sL%d.dw", TagGradPrefix, gl)); err != nil {
			return err
		}
		if cfg.Accum > 1 {
			if ls.gacc, err = alloc(paramBytes, rows*h, fmt.Sprintf("%sL%d.dwacc", TagGradPrefix, gl)); err != nil {
				return err
			}
		}
		if ls.m, err = alloc(optBytes, rows*h, fmt.Sprintf("%sL%d.m", TagOptPrefix, gl)); err != nil {
			return err
		}
		if cfg.Opt.Kind == Adam {
			if ls.v, err = alloc(optBytes, rows*h, fmt.Sprintf("%sL%d.v", TagOptPrefix, gl)); err != nil {
				return err
			}
		}
		if ls.zFull, err = alloc(actBytes, h, fmt.Sprintf("%sL%d.z", TagActPrefix, gl)); err != nil {
			return err
		}
		if ls.dzFull, err = alloc(actBytes, h, fmt.Sprintf("%sL%d.dz", TagGradPrefix, gl)); err != nil {
			return err
		}
		if cfg.Topo.T > 1 {
			if ls.zPart, err = alloc(actBytes, rows, fmt.Sprintf("%sL%d.zp", TagActPrefix, gl)); err != nil {
				return err
			}
			if ls.dzPart, err = alloc(actBytes, rows, fmt.Sprintf("%sL%d.dzp", TagGradPrefix, gl)); err != nil {
				return err
			}
		}
		if cfg.Topo.FSDP() {
			if ls.wFull, err = alloc(paramBytes*int64(cfg.Topo.FSDPShard), h*h, fmt.Sprintf("%sL%d.wfull", TagActPrefix, gl)); err != nil {
				return err
			}
			if ls.gFull, err = alloc(paramBytes*int64(cfg.Topo.FSDPShard), h*h, fmt.Sprintf("%sL%d.gfull", TagGradPrefix, gl)); err != nil {
				return err
			}
		}
		w.layers = append(w.layers, ls)
	}

	w.acts = make([]cuda.Buf, n+1)
	w.dacts = make([]cuda.Buf, n+1)
	for i := 0; i <= n; i++ {
		var err error
		if w.acts[i], err = alloc(actBytes, h, fmt.Sprintf("%sh%d", TagActPrefix, i)); err != nil {
			return err
		}
		if w.dacts[i], err = alloc(actBytes, h, fmt.Sprintf("%sdh%d", TagGradPrefix, i)); err != nil {
			return err
		}
	}
	var err error
	if w.yBuf, err = alloc(1<<10, h, TagIOPrefix+"y"); err != nil {
		return err
	}
	if w.lossB, err = alloc(64, 1, TagIOPrefix+"loss"); err != nil {
		return err
	}
	if w.normBuf, err = alloc(64, 1, TagIOPrefix+"gradnorm"); err != nil {
		return err
	}
	return nil
}

// buildLaunchParams precomputes every kernel's launch parameters from the
// freshly allocated buffers, so steady-state iterations launch with the
// same argument slices every time instead of building fresh composite
// literals per call. The device APIs capture argument values at call time,
// which also makes the in-place optimizer mutation (learning rate, Adam
// step count) safe.
func (w *Worker) buildLaunchParams() {
	cfg := w.cfg
	h := cfg.Model.Hidden
	st := cfg.Step
	n := len(w.layers)

	for li, ls := range w.layers {
		in, out := w.acts[li], w.acts[li+1]
		switch {
		case cfg.Topo.FSDP():
			ls.fwdLin = cuda.LaunchParams{
				Kernel: "linear.fwd", Dur: st.FwdPerLayer * 7 / 10,
				Bufs: []cuda.Buf{ls.wFull, in, ls.zFull}, IArgs: []int64{int64(h), int64(h)},
			}
			ls.bwdDw = cuda.LaunchParams{
				Kernel: "linear.bwd.dw", Dur: st.BwdPerLayer * 45 / 100,
				Bufs: []cuda.Buf{ls.dzFull, in, ls.gFull}, IArgs: []int64{int64(h), int64(h)},
			}
			ls.bwdDx = cuda.LaunchParams{
				Kernel: "linear.bwd.dx", Dur: st.BwdPerLayer * 45 / 100,
				Bufs: []cuda.Buf{ls.wFull, ls.dzFull, w.dacts[li]}, IArgs: []int64{int64(h), int64(h)},
			}
		case cfg.Topo.T > 1:
			ls.fwdLin = cuda.LaunchParams{
				Kernel: "linear.fwd", Dur: st.FwdPerLayer * 7 / 10,
				Bufs: []cuda.Buf{ls.w, in, ls.zPart}, IArgs: []int64{int64(ls.rows), int64(h)},
			}
			ls.bwdSlice = cuda.LaunchParams{
				Kernel: "slice.copy", Dur: st.BwdPerLayer / 20,
				Bufs: []cuda.Buf{ls.dzFull, ls.dzPart}, IArgs: []int64{int64(ls.rowOff)},
			}
			ls.bwdDw = cuda.LaunchParams{
				Kernel: "linear.bwd.dw", Dur: st.BwdPerLayer * 45 / 100,
				Bufs: []cuda.Buf{ls.dzPart, in, ls.g}, IArgs: []int64{int64(ls.rows), int64(h)},
			}
			ls.bwdDx = cuda.LaunchParams{
				Kernel: "linear.bwd.dx", Dur: st.BwdPerLayer * 45 / 100,
				Bufs: []cuda.Buf{ls.w, ls.dzPart, w.dacts[li]}, IArgs: []int64{int64(ls.rows), int64(h)},
			}
		default:
			ls.fwdLin = cuda.LaunchParams{
				Kernel: "linear.fwd", Dur: st.FwdPerLayer * 7 / 10,
				Bufs: []cuda.Buf{ls.w, in, ls.zFull}, IArgs: []int64{int64(h), int64(h)},
			}
			ls.bwdDw = cuda.LaunchParams{
				Kernel: "linear.bwd.dw", Dur: st.BwdPerLayer * 45 / 100,
				Bufs: []cuda.Buf{ls.dzFull, in, ls.g}, IArgs: []int64{int64(h), int64(h)},
			}
			ls.bwdDx = cuda.LaunchParams{
				Kernel: "linear.bwd.dx", Dur: st.BwdPerLayer * 45 / 100,
				Bufs: []cuda.Buf{ls.w, ls.dzFull, w.dacts[li]}, IArgs: []int64{int64(h), int64(h)},
			}
		}
		ls.fwdAct = cuda.LaunchParams{
			Kernel: "tanh.fwd", Dur: st.FwdPerLayer * 1 / 10,
			Bufs: []cuda.Buf{ls.zFull, out},
		}
		ls.bwdAct = cuda.LaunchParams{
			Kernel: "tanh.bwd", Dur: st.BwdPerLayer / 10,
			Bufs: []cuda.Buf{w.dacts[li+1], w.acts[li+1], ls.dzFull},
		}
		if cfg.Accum > 1 {
			dur := st.BwdPerLayer / 20
			ls.accSeed = cuda.LaunchParams{
				Kernel: "slice.copy", Dur: dur,
				Bufs: []cuda.Buf{ls.g, ls.gacc}, IArgs: []int64{0},
			}
			ls.accAdd = cuda.LaunchParams{
				Kernel: "acc.add", Dur: dur,
				Bufs: []cuda.Buf{ls.gacc, ls.g},
			}
			ls.accOut = cuda.LaunchParams{
				Kernel: "slice.copy", Dur: dur,
				Bufs: []cuda.Buf{ls.gacc, ls.g}, IArgs: []int64{0},
			}
		}
		scale := float32(1) / float32(cfg.Topo.D*w.accumFactor())
		switch cfg.Opt.Kind {
		case Adam:
			ls.opt = cuda.LaunchParams{
				Kernel: "adam.step", Dur: st.OptPerLayer,
				Bufs:  []cuda.Buf{ls.w, ls.g, ls.m, ls.v},
				FArgs: []float32{0, cfg.Opt.Momentum, cfg.Opt.Beta2, cfg.Opt.Eps, scale},
				IArgs: []int64{0},
			}
		default:
			ls.opt = cuda.LaunchParams{
				Kernel: "sgd.step", Dur: st.OptPerLayer,
				Bufs:  []cuda.Buf{ls.w, ls.g, ls.m},
				FArgs: []float32{0, cfg.Opt.Momentum, scale},
			}
		}
	}

	if w.IsLastStage() {
		w.lossLP = cuda.LaunchParams{
			Kernel: "mse.loss", Dur: st.BwdPerLayer / 10,
			Bufs: []cuda.Buf{w.acts[n], w.yBuf, w.dacts[n], w.lossB},
		}
	}
	w.ds = Dataset{Seed: cfg.DataSeed, Hidden: h}
	if w.xScratch == nil {
		w.xScratch = tensor.NewVector(h)
		w.yScratch = tensor.NewVector(h)
	}
}

// initParams loads the deterministic initial weight shards; optimizer
// state starts zeroed (fresh allocations are zeroed).
func (w *Worker) initParams(p *vclock.Proc) error {
	for _, ls := range w.layers {
		data := InitShard(w.cfg.Model, ls.global, ls.rowOff, ls.rows)
		if err := w.cfg.API.MemcpyH2D(p, ls.w, data, w.compute); err != nil {
			return err
		}
	}
	return nil
}

// RunIter executes one full minibatch: data load, forward, backward,
// gradient synchronization, optimizer step. It returns the loss on the
// last pipeline stage (zero elsewhere).
func (w *Worker) RunIter(p *vclock.Proc) (float32, error) {
	if !w.ready {
		return 0, fmt.Errorf("train: worker %d not set up", w.cfg.Rank)
	}
	// The iter span closes on return (with err on failure); a kill mid-
	// minibatch unwinds past this frame and leaves it open, which is how
	// the trace marks an interrupted iteration. The nil-recorder guard
	// keeps the untraced hot path free of interface boxing.
	var sp trace.Span
	if rec := trace.Of(p.Env()); rec != nil {
		sp = rec.Begin(p.Now(), "train", w.rankLane, "iter", "iter", w.iter)
	}
	loss, err := w.runIter(p)
	if err != nil {
		sp.End(p.Now(), "err", err)
		return loss, err
	}
	sp.End(p.Now())
	return loss, nil
}

func (w *Worker) runIter(p *vclock.Proc) (float32, error) {
	cfg := w.cfg
	api := cfg.API
	iter := w.iter

	if cfg.Hooks.StartMinibatch != nil {
		cfg.Hooks.StartMinibatch(iter)
	}
	if cfg.GIL != nil {
		cfg.GIL.Lock(p)
		defer func() {
			if cfg.GIL.Owner() == p {
				cfg.GIL.Unlock(p)
			}
		}()
	}

	acc := w.accumFactor()
	for m := 0; m < acc; m++ {
		if err := w.loadData(p, iter, m); err != nil {
			return 0, err
		}
		if err := w.forward(p); err != nil {
			return 0, err
		}
		if err := w.lossAndBackward(p); err != nil {
			return 0, err
		}
		if acc > 1 {
			if err := w.accumulateGrads(p, m, acc); err != nil {
				return 0, err
			}
		}
	}
	if err := w.syncGradients(p); err != nil {
		return 0, err
	}

	if cfg.Hooks.PreOptimizer != nil {
		cfg.Hooks.PreOptimizer(p, iter)
	}
	// The opt-step span covers launch through stream drain — the window in
	// which parameter buffers mutate on the device. It closes only once the
	// synchronize confirms the kernels retired; an error or kill leaves it
	// open (the mutation never completed, so trace invariants skip it).
	var osp trace.Span
	if rec := trace.Of(p.Env()); rec != nil {
		osp = rec.Begin(p.Now(), "train", w.rankLane, "opt-step", "iter", iter)
	}
	if err := w.optimizerStep(p, iter); err != nil {
		return 0, err
	}
	if cfg.Hooks.PostOptimizer != nil {
		cfg.Hooks.PostOptimizer()
	}

	if err := api.StreamSynchronize(p, w.compute); err != nil {
		return 0, err
	}
	osp.End(p.Now())
	if w.gradRing != nil {
		w.pushGradRing(iter)
	}
	var loss float32
	if w.IsLastStage() {
		lv, err := api.MemcpyD2H(p, w.lossB, w.compute)
		if err != nil {
			return 0, err
		}
		loss = lv[0]
		if cfg.OnLoss != nil {
			cfg.OnLoss(iter, loss)
		}
	}
	w.iter = iter + 1
	return loss, nil
}

// accumFactor returns the effective gradient-accumulation factor (≥1).
func (w *Worker) accumFactor() int {
	if w.cfg.Accum > 1 {
		return w.cfg.Accum
	}
	return 1
}

// loadData feeds microbatch m of minibatch iter: x into the first stage
// and y into the last. The sample index walks the dataset so that a job
// at width D with accumulation factor A consumes exactly the samples
// [i*D*A, (i+1)*D*A) in iteration i — the same global batch a job at
// width D*A without accumulation would consume.
func (w *Worker) loadData(p *vclock.Proc, iter, m int) error {
	cfg := w.cfg
	sample := (iter*w.accumFactor()+m)*cfg.Topo.D + w.d
	if w.p == 0 || w.IsLastStage() {
		w.ds.SampleInto(sample, w.xScratch, w.yScratch)
	}
	if w.p == 0 {
		if err := cfg.API.MemcpyH2D(p, w.acts[0], w.xScratch, w.compute); err != nil {
			return err
		}
	}
	if w.IsLastStage() {
		if err := cfg.API.MemcpyH2D(p, w.yBuf, w.yScratch, w.compute); err != nil {
			return err
		}
	}
	return nil
}

// forward runs the local layers, receiving/sending stage boundaries.
func (w *Worker) forward(p *vclock.Proc) error {
	cfg := w.cfg
	api := cfg.API

	if cfg.Topo.P > 1 && w.p > 0 {
		if err := api.Recv(p, w.ppComm, w.acts[0], w.p-1, w.compute); err != nil {
			return err
		}
	}
	for _, ls := range w.layers {
		switch {
		case cfg.Topo.FSDP():
			if err := api.AllGather(p, w.fsComm, ls.w, ls.wFull, w.compute); err != nil {
				return err
			}
			if err := api.Launch(p, ls.fwdLin, w.compute); err != nil {
				return err
			}
		case cfg.Topo.T > 1:
			if err := api.Launch(p, ls.fwdLin, w.compute); err != nil {
				return err
			}
			if err := api.AllGather(p, w.tpComm, ls.zPart, ls.zFull, w.compute); err != nil {
				return err
			}
		default:
			if err := api.Launch(p, ls.fwdLin, w.compute); err != nil {
				return err
			}
		}
		if err := api.Launch(p, ls.fwdAct, w.compute); err != nil {
			return err
		}
	}
	if cfg.Topo.P > 1 && !w.IsLastStage() {
		n := len(w.layers)
		if err := api.Send(p, w.ppComm, w.acts[n], w.p+1, w.compute); err != nil {
			return err
		}
	}
	return nil
}

// lossAndBackward computes the loss gradient (last stage) or receives it
// (other stages), then runs the local backward pass.
func (w *Worker) lossAndBackward(p *vclock.Proc) error {
	cfg := w.cfg
	api := cfg.API
	n := len(w.layers)

	if w.IsLastStage() {
		if err := api.Launch(p, w.lossLP, w.compute); err != nil {
			return err
		}
	} else if cfg.Topo.P > 1 {
		if err := api.Recv(p, w.ppComm, w.dacts[n], w.p+1, w.compute); err != nil {
			return err
		}
	}

	for li := n - 1; li >= 0; li-- {
		ls := w.layers[li]
		if err := api.Launch(p, ls.bwdAct, w.compute); err != nil {
			return err
		}
		switch {
		case cfg.Topo.FSDP():
			if err := api.Launch(p, ls.bwdDw, w.compute); err != nil {
				return err
			}
			if err := api.Launch(p, ls.bwdDx, w.compute); err != nil {
				return err
			}
			if err := api.ReduceScatter(p, w.fsComm, ls.gFull, ls.g, w.compute); err != nil {
				return err
			}
		case cfg.Topo.T > 1:
			if err := api.Launch(p, ls.bwdSlice, w.compute); err != nil {
				return err
			}
			if err := api.Launch(p, ls.bwdDw, w.compute); err != nil {
				return err
			}
			if err := api.Launch(p, ls.bwdDx, w.compute); err != nil {
				return err
			}
			// Each TP rank computed a partial input gradient: sum them.
			if err := api.AllReduce(p, w.tpComm, w.dacts[li], w.compute); err != nil {
				return err
			}
		default:
			if err := api.Launch(p, ls.bwdDw, w.compute); err != nil {
				return err
			}
			if err := api.Launch(p, ls.bwdDx, w.compute); err != nil {
				return err
			}
		}
	}
	if cfg.Topo.P > 1 && w.p > 0 {
		if err := api.Send(p, w.ppComm, w.dacts[0], w.p-1, w.compute); err != nil {
			return err
		}
	}
	return nil
}

// accumulateGrads folds microbatch m's local gradients into the
// accumulation buffers (Accum > 1 only). The first microbatch seeds the
// accumulator by copy; after the last, the sum is copied back into the
// regular gradient buffers so gradient synchronization and the optimizer
// are oblivious to accumulation.
func (w *Worker) accumulateGrads(p *vclock.Proc, m, acc int) error {
	api := w.cfg.API
	for _, ls := range w.layers {
		lp := ls.accAdd
		if m == 0 {
			lp = ls.accSeed
		}
		if err := api.Launch(p, lp, w.compute); err != nil {
			return err
		}
	}
	if m == acc-1 {
		for _, ls := range w.layers {
			if err := api.Launch(p, ls.accOut, w.compute); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncGradients performs the data-parallel gradient all-reduce on the
// communication stream, wired to the compute stream exactly as Figure 3
// shows: record backward-done on compute, make the comm stream wait for
// it, all-reduce every gradient buffer, record allreduce-done, and make
// the compute stream wait on that before the optimizer runs.
func (w *Worker) syncGradients(p *vclock.Proc) error {
	cfg := w.cfg
	api := cfg.API
	gradComm := w.dpComm
	if cfg.Topo.FSDP() {
		gradComm = w.frComm // cross-group replica all-reduce
	}
	if gradComm == 0 && w.worldComm == 0 {
		return nil // single rank: nothing to synchronize
	}
	if err := api.EventRecord(p, w.bwdEv, w.compute); err != nil {
		return err
	}
	if err := api.StreamWaitEvent(p, w.comm, w.bwdEv); err != nil {
		return err
	}
	if gradComm != 0 {
		for _, ls := range w.layers {
			if err := api.AllReduce(p, gradComm, ls.g, w.comm); err != nil {
				return err
			}
		}
	}
	// Global gradient-norm all-reduce: the whole-world flush barrier
	// before any rank may run its optimizer step.
	if w.worldComm != 0 {
		if err := api.AllReduce(p, w.worldComm, w.normBuf, w.comm); err != nil {
			return err
		}
	}
	if err := api.EventRecord(p, w.arEv, w.comm); err != nil {
		return err
	}
	return api.StreamWaitEvent(p, w.compute, w.arEv)
}

// optimizerStep updates parameters from (averaged) gradients. The Adam
// step count is a pure function of the iteration so recovery replays
// cannot double-count it.
func (w *Worker) optimizerStep(p *vclock.Proc, iter int) error {
	cfg := w.cfg
	api := cfg.API
	lr := cfg.Opt.LRAt(iter)
	for _, ls := range w.layers {
		// In-place mutation of the prebuilt params: the device APIs capture
		// argument values at call time, so the previous launch cannot see it.
		ls.opt.FArgs[0] = lr
		if cfg.Opt.Kind == Adam {
			ls.opt.IArgs[0] = int64(iter + 1)
		}
		if err := api.Launch(p, ls.opt, w.compute); err != nil {
			return err
		}
	}
	return nil
}

// RunIters runs n minibatches, stopping at the first error.
func (w *Worker) RunIters(p *vclock.Proc, n int) error {
	for i := 0; i < n; i++ {
		if _, err := w.RunIter(p); err != nil {
			return fmt.Errorf("train: %s iter %d: %w", w.cfg.Name, w.iter, err)
		}
	}
	return nil
}
