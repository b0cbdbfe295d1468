package nccl

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"jitckpt/internal/gpu"
	"jitckpt/internal/tensor"
	"jitckpt/internal/vclock"
)

// harness builds n devices each with one stream, plus an engine.
type harness struct {
	env     *vclock.Env
	engine  *Engine
	devs    []*gpu.Device
	streams []*gpu.Stream
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	env := vclock.NewEnv(1)
	h := &harness{env: env, engine: NewEngine(env, DefaultParams())}
	for i := 0; i < n; i++ {
		d := gpu.NewDevice(env, i/8, i%8, 1<<34)
		s, err := d.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		h.devs = append(h.devs, d)
		h.streams = append(h.streams, s)
	}
	return h
}

// initComms spawns one worker per rank that rendezvouses, then calls body.
func (h *harness) eachRank(body func(p *vclock.Proc, rank int, comm *Comm)) {
	n := len(h.devs)
	for r := 0; r < n; r++ {
		r := r
		h.env.Go(fmt.Sprintf("rank%d", r), func(p *vclock.Proc) {
			comm, err := h.engine.CommInitRank(p, "world", 0, n, r, h.devs[r])
			if err != nil {
				panic(err)
			}
			body(p, r, comm)
		})
	}
}

func mkBuf(t *testing.T, d *gpu.Device, data []float32) *gpu.Buffer {
	t.Helper()
	b, err := d.Alloc(int64(4*len(data)), len(data), "buf")
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Data, data)
	return b
}

// TestRepeatedAllReduceRotatesTheLastArriver: a rank's collectives reuse
// its request objects, so each round must start from a clean request
// whichever role — waiting at the barrier, or last and paying the transfer
// — the same object played the round before. Round i's last arriver is rank
// i mod 3, one second after the others; every rank completes one transfer
// after it, with the sum.
func TestRepeatedAllReduceRotatesTheLastArriver(t *testing.T) {
	const ranks, rounds = 3, 6
	h := newHarness(t, ranks)
	bufs := make([]*gpu.Buffer, ranks)
	for r := range bufs {
		bufs[r] = mkBuf(t, h.devs[r], []float32{1})
	}
	prm := DefaultParams()
	transfer := prm.BaseLatency + gpu.TransferTime(collCost("allreduce", 4, ranks), prm.BusBandwidth)
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		for i := 0; i < rounds; i++ {
			start := p.Now()
			if r == i%ranks {
				p.Sleep(vclock.Second)
			}
			op, err := comm.AllReduce(h.streams[r], bufs[r])
			if err != nil {
				t.Errorf("rank %d round %d: %v", r, i, err)
				return
			}
			if !p.WaitTimeout(op.Done, vclock.Minute) || op.Err != nil {
				t.Errorf("rank %d round %d: done=%v err=%v", r, i, op.Done.Triggered(), op.Err)
				return
			}
			if got := p.Now() - start; got != vclock.Second+transfer {
				t.Errorf("rank %d round %d: took %d ns, want %d", r, i, got, vclock.Second+transfer)
			}
			if want := float32(math.Pow(ranks, float64(i+1))); bufs[r].Data[0] != want {
				t.Errorf("rank %d round %d: sum %v, want %v", r, i, bufs[r].Data[0], want)
			}
		}
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSums(t *testing.T) {
	h := newHarness(t, 4)
	bufs := make([]*gpu.Buffer, 4)
	for r := range bufs {
		bufs[r] = mkBuf(t, h.devs[r], []float32{float32(r), 1, 2})
	}
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		op, err := comm.AllReduce(h.streams[r], bufs[r])
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
			return
		}
		p.Wait(op.Done)
		if op.Err != nil {
			t.Errorf("rank %d op err: %v", r, op.Err)
		}
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	want := tensor.Vector{0 + 1 + 2 + 3, 4, 8}
	for r, b := range bufs {
		if !b.Data.Equal(want) {
			t.Fatalf("rank %d data = %v, want %v", r, b.Data, want)
		}
	}
}

func TestAllReduceIsBarrier(t *testing.T) {
	// Rank 1 arrives 5 seconds late; ranks 0 and 2 must not complete early.
	h := newHarness(t, 3)
	done := make([]vclock.Time, 3)
	bufs := make([]*gpu.Buffer, 3)
	for r := range bufs {
		bufs[r] = mkBuf(t, h.devs[r], []float32{1})
	}
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		if r == 1 {
			p.Sleep(vclock.Seconds(5))
		}
		op, _ := comm.AllReduce(h.streams[r], bufs[r])
		p.Wait(op.Done)
		done[r] = p.Now()
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	for r, at := range done {
		if at < vclock.Seconds(5) {
			t.Fatalf("rank %d completed at %v, before the last arriver", r, at)
		}
	}
}

func TestAllReduceHangsOnDeadRank(t *testing.T) {
	h := newHarness(t, 3)
	bufs := make([]*gpu.Buffer, 3)
	for r := range bufs {
		bufs[r] = mkBuf(t, h.devs[r], []float32{1})
	}
	timedOut := make([]bool, 3)
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		if r == 2 {
			h.devs[2].InjectHard() // dies before issuing its collective
			return
		}
		op, _ := comm.AllReduce(h.streams[r], bufs[r])
		timedOut[r] = !p.WaitTimeout(op.Done, vclock.Seconds(30))
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut[0] || !timedOut[1] {
		t.Fatalf("healthy ranks should hang: %v", timedOut)
	}
	// Barrier property: the healthy ranks' buffers are untouched.
	for r := 0; r < 2; r++ {
		if bufs[r].Data[0] != 1 {
			t.Fatalf("rank %d buffer modified despite hang", r)
		}
	}
}

func TestAllGatherAndReduceScatter(t *testing.T) {
	h := newHarness(t, 2)
	ins := make([]*gpu.Buffer, 2)
	outs := make([]*gpu.Buffer, 2)
	rsIns := make([]*gpu.Buffer, 2)
	rsOuts := make([]*gpu.Buffer, 2)
	for r := 0; r < 2; r++ {
		ins[r] = mkBuf(t, h.devs[r], []float32{float32(10 * (r + 1))})
		outs[r] = mkBuf(t, h.devs[r], []float32{0, 0})
		rsIns[r] = mkBuf(t, h.devs[r], []float32{float32(r), float32(r * 10)})
		rsOuts[r] = mkBuf(t, h.devs[r], []float32{0})
	}
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		ag, err := comm.AllGather(h.streams[r], ins[r], outs[r])
		if err != nil {
			t.Errorf("allgather rank %d: %v", r, err)
			return
		}
		p.Wait(ag.Done)
		rs, err := comm.ReduceScatter(h.streams[r], rsIns[r], rsOuts[r])
		if err != nil {
			t.Errorf("reducescatter rank %d: %v", r, err)
			return
		}
		p.Wait(rs.Done)
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if !outs[r].Data.Equal(tensor.Vector{10, 20}) {
			t.Fatalf("allgather rank %d out = %v", r, outs[r].Data)
		}
	}
	// sum = [0+1, 0+10] = [1, 10]; rank r gets chunk r.
	if rsOuts[0].Data[0] != 1 || rsOuts[1].Data[0] != 10 {
		t.Fatalf("reducescatter outs = %v, %v", rsOuts[0].Data, rsOuts[1].Data)
	}
}

func TestSendRecvPipeline(t *testing.T) {
	h := newHarness(t, 2)
	src := mkBuf(t, h.devs[0], []float32{7, 8, 9})
	dst := mkBuf(t, h.devs[1], []float32{0, 0, 0})
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		if r == 0 {
			op, err := comm.Send(h.streams[0], src, 1)
			if err != nil {
				t.Error(err)
				return
			}
			p.Wait(op.Done)
		} else {
			op, err := comm.Recv(h.streams[1], dst, 0)
			if err != nil {
				t.Error(err)
				return
			}
			p.Wait(op.Done)
		}
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Data.Equal(tensor.Vector{7, 8, 9}) {
		t.Fatalf("recv data = %v", dst.Data)
	}
}

func TestSendRecvMatchInOrder(t *testing.T) {
	h := newHarness(t, 2)
	s1 := mkBuf(t, h.devs[0], []float32{1})
	s2 := mkBuf(t, h.devs[0], []float32{2})
	d1 := mkBuf(t, h.devs[1], []float32{0})
	d2 := mkBuf(t, h.devs[1], []float32{0})
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		if r == 0 {
			a, _ := comm.Send(h.streams[0], s1, 1)
			b, _ := comm.Send(h.streams[0], s2, 1)
			p.Wait(a.Done)
			p.Wait(b.Done)
		} else {
			a, _ := comm.Recv(h.streams[1], d1, 0)
			b, _ := comm.Recv(h.streams[1], d2, 0)
			p.Wait(a.Done)
			p.Wait(b.Done)
		}
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	if d1.Data[0] != 1 || d2.Data[0] != 2 {
		t.Fatalf("out-of-order match: %v %v", d1.Data, d2.Data)
	}
}

func TestCommInitHangsWithoutAllRanks(t *testing.T) {
	env := vclock.NewEnv(1)
	e := NewEngine(env, DefaultParams())
	d := gpu.NewDevice(env, 0, 0, 1<<30)
	got := false
	env.Go("lonely", func(p *vclock.Proc) {
		_, err := e.CommInitRank(p, "world", 0, 2, 0, d)
		got = err == nil
	})
	if err := env.RunUntil(vclock.Hour); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("rendezvous completed without all ranks")
	}
}

func TestCommInitGenerationIsolation(t *testing.T) {
	// Stale arrivals from generation 0 must not satisfy generation 1.
	env := vclock.NewEnv(1)
	e := NewEngine(env, DefaultParams())
	devs := []*gpu.Device{gpu.NewDevice(env, 0, 0, 1<<30), gpu.NewDevice(env, 0, 1, 1<<30)}
	// Gen 0: only rank 0 arrives (simulating an aborted attempt).
	env.Go("stale", func(p *vclock.Proc) {
		e.CommInitRank(p, "world", 0, 2, 0, devs[0])
	})
	inited := 0
	for r := 0; r < 2; r++ {
		r := r
		env.Go(fmt.Sprintf("fresh%d", r), func(p *vclock.Proc) {
			p.Sleep(vclock.Second)
			if _, err := e.CommInitRank(p, "world", 1, 2, r, devs[r]); err == nil {
				inited++
			}
		})
	}
	if err := env.RunUntil(vclock.Hour); err != nil {
		t.Fatal(err)
	}
	if inited != 2 {
		t.Fatalf("gen 1 init count = %d, want 2", inited)
	}
}

func TestInitCostScalesWithRanks(t *testing.T) {
	cost := func(n int) vclock.Time {
		env := vclock.NewEnv(1)
		e := NewEngine(env, DefaultParams())
		var at vclock.Time
		for r := 0; r < n; r++ {
			r := r
			env.Go(fmt.Sprintf("r%d", r), func(p *vclock.Proc) {
				d := gpu.NewDevice(env, 0, r, 1<<30)
				if _, err := e.CommInitRank(p, "w", 0, n, r, d); err != nil {
					t.Error(err)
				}
				at = p.Now()
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if c2, c16 := cost(2), cost(16); c16 <= c2 {
		t.Fatalf("init cost should grow with ranks: %v vs %v", c2, c16)
	}
}

func TestFaultHangThenNewGenerationRecovers(t *testing.T) {
	h := newHarness(t, 2)
	bufs := make([]*gpu.Buffer, 2)
	for r := range bufs {
		bufs[r] = mkBuf(t, h.devs[r], []float32{1})
	}
	recovered := make([]bool, 2)
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		if r == 0 {
			h.engine.InjectFault("world", 0, FaultHang)
		}
		op, _ := comm.AllReduce(h.streams[r], bufs[r])
		if p.WaitTimeout(op.Done, vclock.Seconds(10)) {
			t.Errorf("rank %d collective completed under hang fault", r)
			return
		}
		// Recovery: destroy the wedged stream and comm, re-init gen 1.
		comm.Destroy()
		h.devs[r].DestroyStream(h.streams[r].ID)
		ns, err := h.devs[r].NewStream()
		if err != nil {
			t.Error(err)
			return
		}
		c2, err := h.engine.CommInitRank(p, "world", 1, 2, r, h.devs[r])
		if err != nil {
			t.Error(err)
			return
		}
		op2, _ := c2.AllReduce(ns, bufs[r])
		if p.WaitTimeout(op2.Done, vclock.Minute) && op2.Err == nil {
			recovered[r] = true
		}
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !recovered[0] || !recovered[1] {
		t.Fatalf("recovery after new generation failed: %v", recovered)
	}
	// First allreduce hung before mutating, second summed: 1+1 = 2.
	for r, b := range bufs {
		if b.Data[0] != 2 {
			t.Fatalf("rank %d = %v, want 2", r, b.Data)
		}
	}
}

func TestFaultError(t *testing.T) {
	h := newHarness(t, 2)
	bufs := make([]*gpu.Buffer, 2)
	for r := range bufs {
		bufs[r] = mkBuf(t, h.devs[r], []float32{1})
	}
	var errs [2]error
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		if r == 0 {
			h.engine.InjectFault("world", 0, FaultError)
		}
		op, _ := comm.AllReduce(h.streams[r], bufs[r])
		p.Wait(op.Done)
		errs[r] = op.Err
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if !errors.Is(e, ErrNetwork) {
			t.Fatalf("rank %d err = %v, want network error", r, e)
		}
	}
}

func TestMismatchedCollectiveKind(t *testing.T) {
	h := newHarness(t, 2)
	bufs := make([]*gpu.Buffer, 2)
	for r := range bufs {
		bufs[r] = mkBuf(t, h.devs[r], []float32{1})
	}
	var sawMismatch bool
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		var op *gpu.Op
		if r == 0 {
			op, _ = comm.AllReduce(h.streams[r], bufs[r])
		} else {
			op, _ = comm.AllGather(h.streams[r], bufs[r], bufs[r])
		}
		if p.WaitTimeout(op.Done, vclock.Minute) && errors.Is(op.Err, ErrMismatch) {
			sawMismatch = true
		}
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawMismatch {
		t.Fatal("mismatched collectives not detected")
	}
}

func TestBufferSizeMismatch(t *testing.T) {
	h := newHarness(t, 2)
	a := mkBuf(t, h.devs[0], []float32{1, 2})
	b := mkBuf(t, h.devs[1], []float32{1})
	var sawErr bool
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		buf := a
		if r == 1 {
			buf = b
		}
		op, _ := comm.AllReduce(h.streams[r], buf)
		p.Wait(op.Done)
		if errors.Is(op.Err, ErrBufSizes) {
			sawErr = true
		}
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawErr {
		t.Fatal("size mismatch not detected")
	}
}

// TestFailuresOnArrivalDoNotWait: a collective or transfer that fails as it
// arrives — async network error, mismatched kind, a rank arriving twice, a
// p2p size mismatch found at the match — completes at that instant, charging
// no latency and no transfer, and releases whoever was already waiting with
// the same verdict; one whose peer never comes stays parked for good.
func TestFailuresOnArrivalDoNotWait(t *testing.T) {
	type outcome struct {
		at  vclock.Time
		err error
	}
	// Rank 0 issues first, rank 1 two seconds later; both report when their
	// op completed, relative to the end of the rendezvous.
	run := func(issue func(h *harness, p *vclock.Proc, r int, comm *Comm) *gpu.Op) (out [2]outcome, h *harness) {
		h = newHarness(t, 2)
		h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
			t0 := p.Now()
			p.Sleep(vclock.Time(2*r) * vclock.Second)
			op := issue(h, p, r, comm)
			out[r] = outcome{-1, nil}
			if p.WaitTimeout(op.Done, vclock.Minute) {
				out[r] = outcome{p.Now() - t0, op.Err}
			}
		})
		if err := h.env.Run(); err != nil {
			t.Fatal(err)
		}
		return out, h
	}
	bufs := func(h *harness, lens ...int) []*gpu.Buffer {
		out := make([]*gpu.Buffer, len(lens))
		for r, n := range lens {
			out[r] = mkBuf(t, h.devs[r], make([]float32, n))
		}
		return out
	}
	check := func(name string, out [2]outcome, want error) {
		t.Helper()
		for r, o := range out {
			if o.at != 2*vclock.Second || !errors.Is(o.err, want) {
				t.Errorf("%s: rank %d done at %v with %v, want at 2s (the second arrival) with %v", name, r, o.at, o.err, want)
			}
		}
	}

	var b []*gpu.Buffer
	out, _ := run(func(h *harness, p *vclock.Proc, r int, comm *Comm) *gpu.Op {
		if r == 0 {
			b = bufs(h, 1, 1)
		} else {
			h.engine.InjectFault("world", 0, FaultError) // rank 0 is inside the barrier already
		}
		op, _ := comm.AllReduce(h.streams[r], b[r])
		return op
	})
	check("FaultError", out, ErrNetwork)

	out, _ = run(func(h *harness, p *vclock.Proc, r int, comm *Comm) *gpu.Op {
		if r == 0 {
			b = bufs(h, 1, 1)
			op, _ := comm.AllReduce(h.streams[r], b[r])
			return op
		}
		op, _ := comm.AllGather(h.streams[r], b[r], b[r])
		return op
	})
	check("mismatched kind", out, ErrMismatch)

	out, _ = run(func(h *harness, p *vclock.Proc, r int, comm *Comm) *gpu.Op {
		if r == 0 {
			b = bufs(h, 2, 1)
			op, _ := comm.Send(h.streams[r], b[r], 1)
			return op
		}
		op, _ := comm.Recv(h.streams[r], b[r], 0)
		return op
	})
	check("p2p size mismatch", out, ErrBufSizes)

	out, _ = run(func(h *harness, p *vclock.Proc, r int, comm *Comm) *gpu.Op {
		if r == 0 {
			b = bufs(h, 1, 1)
			h.engine.InjectFault("world", 0, FaultError)
		}
		op, _ := comm.Send(h.streams[r], b[r], 1-r) // two sends: nobody to match, nothing to wait for
		return op
	})
	for r, o := range out {
		if o.at != vclock.Time(2*r)*vclock.Second || !errors.Is(o.err, ErrNetwork) {
			t.Errorf("p2p FaultError: rank %d done at %v with %v, want at once with a network error", r, o.at, o.err)
		}
	}

	// Rank 0 arrives twice at collective #0, through a second handle and a
	// second stream: the duplicate fails at once, the first arrival is still
	// good and completes with rank 1, one base latency after it.
	var dupOut outcome
	out, _ = run(func(h *harness, p *vclock.Proc, r int, comm *Comm) *gpu.Op {
		if r == 1 {
			op, _ := comm.AllReduce(h.streams[r], b[r])
			return op
		}
		b = bufs(h, 0, 0)
		first, _ := comm.AllReduce(h.streams[r], b[r])
		p.Sleep(vclock.Second)
		dup, err := h.engine.CommInitRank(p, "world", 0, 2, 0, h.devs[0])
		if err != nil {
			t.Error(err)
			return first
		}
		s2, _ := h.devs[0].NewStream()
		t0 := p.Now()
		op, _ := dup.AllReduce(s2, b[r])
		p.Wait(op.Done)
		dupOut = outcome{p.Now() - t0, op.Err}
		return first
	})
	if dupOut.at != 0 || !errors.Is(dupOut.err, ErrMismatch) {
		t.Errorf("second arrival of rank 0: done after %v with %v, want at once with a mismatch", dupOut.at, dupOut.err)
	}
	if out[1].at != 2*vclock.Second+DefaultParams().BaseLatency || out[1].err != nil || out[0].err != nil {
		t.Errorf("the collective the duplicate hit: %+v, want rank 1 done one base latency after it arrived, no error", out)
	}

	// A send whose receiver never posts parks its stream for the whole run.
	out, h := run(func(h *harness, p *vclock.Proc, r int, comm *Comm) *gpu.Op {
		if r == 0 {
			b = bufs(h, 1, 1)
			op, _ := comm.Send(h.streams[r], b[r], 1)
			return op
		}
		op, _ := comm.AllReduce(h.streams[r], b[r]) // everyone else is elsewhere
		return op
	})
	if out[0].at != -1 || out[1].at != -1 || h.devs[0].PendingOps() != 1 || h.devs[1].PendingOps() != 1 {
		t.Errorf("unmatched send and lone allreduce: %+v, pending %d and %d; want both still parked", out, h.devs[0].PendingOps(), h.devs[1].PendingOps())
	}
}

func TestDeadCommRejectsCalls(t *testing.T) {
	h := newHarness(t, 1)
	buf := mkBuf(t, h.devs[0], []float32{1})
	h.eachRank(func(p *vclock.Proc, r int, comm *Comm) {
		comm.Destroy()
		if _, err := comm.AllReduce(h.streams[0], buf); !errors.Is(err, ErrCommDead) {
			t.Errorf("err = %v, want comm dead", err)
		}
		if _, err := comm.Send(h.streams[0], buf, 0); !errors.Is(err, ErrCommDead) {
			t.Errorf("send err = %v, want comm dead", err)
		}
	})
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanks(t *testing.T) {
	env := vclock.NewEnv(1)
	e := NewEngine(env, DefaultParams())
	env.Go("w", func(p *vclock.Proc) {
		if _, err := e.CommInitRank(p, "w", 0, 2, 5, nil); !errors.Is(err, ErrInvalidRank) {
			t.Errorf("init err = %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: allreduce over arbitrary rank data equals the elementwise sum,
// on every rank, for any world size 1..6 and vector length 1..32.
func TestAllReduceSumProperty(t *testing.T) {
	f := func(seed int64, nRaw, lenRaw uint8) bool {
		n := int(nRaw%6) + 1
		length := int(lenRaw%32) + 1
		env := vclock.NewEnv(seed)
		e := NewEngine(env, DefaultParams())
		rng := tensor.NewRNG(uint64(seed) + 1)
		devs := make([]*gpu.Device, n)
		streams := make([]*gpu.Stream, n)
		bufs := make([]*gpu.Buffer, n)
		want := tensor.NewVector(length)
		for r := 0; r < n; r++ {
			devs[r] = gpu.NewDevice(env, 0, r, 1<<30)
			streams[r], _ = devs[r].NewStream()
			bufs[r], _ = devs[r].Alloc(int64(4*length), length, "x")
			rng.FillUniform(bufs[r].Data, 1)
		}
		// Expected sum in fixed rank order, mirroring the engine.
		copy(want, bufs[0].Data)
		for r := 1; r < n; r++ {
			want.Add(bufs[r].Data)
		}
		ok := true
		for r := 0; r < n; r++ {
			r := r
			env.Go(fmt.Sprintf("r%d", r), func(p *vclock.Proc) {
				comm, err := e.CommInitRank(p, "w", 0, n, r, devs[r])
				if err != nil {
					ok = false
					return
				}
				op, err := comm.AllReduce(streams[r], bufs[r])
				if err != nil {
					ok = false
					return
				}
				p.Wait(op.Done)
				if op.Err != nil {
					ok = false
				}
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		if !ok {
			return false
		}
		for r := 0; r < n; r++ {
			if !bufs[r].Data.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllReduce8Ranks(b *testing.B) {
	env := vclock.NewEnv(1)
	e := NewEngine(env, DefaultParams())
	const n = 8
	devs := make([]*gpu.Device, n)
	streams := make([]*gpu.Stream, n)
	bufs := make([]*gpu.Buffer, n)
	for r := 0; r < n; r++ {
		devs[r] = gpu.NewDevice(env, 0, r, 1<<34)
		streams[r], _ = devs[r].NewStream()
		bufs[r], _ = devs[r].Alloc(1<<20, 128, "g")
	}
	for r := 0; r < n; r++ {
		r := r
		env.Go(fmt.Sprintf("r%d", r), func(p *vclock.Proc) {
			comm, err := e.CommInitRank(p, "w", 0, n, r, devs[r])
			if err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < b.N; i++ {
				op, _ := comm.AllReduce(streams[r], bufs[r])
				p.Wait(op.Done)
			}
		})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
