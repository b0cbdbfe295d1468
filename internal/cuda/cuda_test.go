package cuda

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/tensor"
	"jitckpt/internal/vclock"
)

// testRig is a single-device driver harness.
type testRig struct {
	env *vclock.Env
	dev *gpu.Device
	drv *Driver
}

func newRig(t *testing.T, kernels Registry) *testRig {
	t.Helper()
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	drv, err := NewDriver(dev, engine, kernels, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{env: env, dev: dev, drv: drv}
}

// inProc runs body as a single worker process and fails the test on error.
func (r *testRig) inProc(t *testing.T, body func(p *vclock.Proc)) {
	t.Helper()
	r.env.Go("worker", body)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		b, err := r.drv.Malloc(p, 1<<20, 4, "x")
		if err != nil {
			t.Error(err)
			return
		}
		if err := r.drv.MemcpyH2D(p, b, []float32{1, 2, 3, 4}, DefaultStream); err != nil {
			t.Error(err)
			return
		}
		got, err := r.drv.MemcpyD2H(p, b, DefaultStream)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Vector(got).Equal(tensor.Vector{1, 2, 3, 4}) {
			t.Errorf("round trip = %v", got)
		}
	})
}

func TestMemcpyH2DCapturesSourceAtCallTime(t *testing.T) {
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		b, _ := r.drv.Malloc(p, 1<<20, 2, "x")
		src := []float32{10, 20}
		r.drv.MemcpyH2D(p, b, src, DefaultStream)
		src[0] = 999 // mutation after the call must not be visible
		got, _ := r.drv.MemcpyD2H(p, b, DefaultStream)
		if got[0] != 10 {
			t.Errorf("H2D did not capture source: %v", got)
		}
	})
}

func TestMemcpyTimingScalesWithModelBytes(t *testing.T) {
	r := newRig(t, nil)
	var small, large vclock.Time
	r.inProc(t, func(p *vclock.Proc) {
		bs, _ := r.drv.Malloc(p, 1<<20, 1, "small")
		bl, _ := r.drv.Malloc(p, 1<<30, 1, "large")
		t0 := p.Now()
		r.drv.MemcpyD2H(p, bs, DefaultStream)
		small = p.Now() - t0
		t0 = p.Now()
		r.drv.MemcpyD2H(p, bl, DefaultStream)
		large = p.Now() - t0
	})
	if large < 100*small {
		t.Fatalf("1 GiB copy (%v) should be ~1024x the 1 MiB copy (%v)", large, small)
	}
}

func TestLaunchRunsRegisteredKernel(t *testing.T) {
	kernels := Registry{
		"scale": func(a KernelArgs) error {
			for i := range a.Bufs[0] {
				a.Bufs[0][i] *= a.FArgs[0]
			}
			return nil
		},
	}
	r := newRig(t, kernels)
	r.inProc(t, func(p *vclock.Proc) {
		b, _ := r.drv.Malloc(p, 64, 3, "x")
		r.drv.MemcpyH2D(p, b, []float32{1, 2, 3}, DefaultStream)
		err := r.drv.Launch(p, LaunchParams{
			Kernel: "scale",
			Dur:    vclock.Millisecond,
			Bufs:   []Buf{b},
			FArgs:  []float32{10},
		}, DefaultStream)
		if err != nil {
			t.Error(err)
			return
		}
		got, _ := r.drv.MemcpyD2H(p, b, DefaultStream)
		if !tensor.Vector(got).Equal(tensor.Vector{10, 20, 30}) {
			t.Errorf("kernel result = %v", got)
		}
	})
}

func TestLaunchUnknownKernel(t *testing.T) {
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		if err := r.drv.Launch(p, LaunchParams{Kernel: "nope"}, DefaultStream); !errors.Is(err, ErrUnknownKernel) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestLaunchIsAsync(t *testing.T) {
	r := newRig(t, nil)
	kernels := Registry{"slow": func(KernelArgs) error { return nil }}
	r.drv.kernels = kernels
	r.inProc(t, func(p *vclock.Proc) {
		t0 := p.Now()
		r.drv.Launch(p, LaunchParams{Kernel: "slow", Dur: vclock.Seconds(10)}, DefaultStream)
		if p.Now()-t0 > vclock.Millisecond {
			t.Error("Launch blocked the host")
		}
		r.drv.StreamSynchronize(p, DefaultStream)
		if p.Now()-t0 < vclock.Seconds(10) {
			t.Error("StreamSynchronize returned before kernel finished")
		}
	})
}

// TestFigure3Pattern reproduces the computation/communication
// synchronization from the paper's Figure 3: all-reduce on the comm stream,
// EventRecord after it, StreamWaitEvent on the compute stream, then the
// optimizer kernel. The optimizer must not run before the all-reduce
// completes.
func TestFigure3Pattern(t *testing.T) {
	var optRanAt vclock.Time
	var arDone bool
	kernels := Registry{
		"opt": func(a KernelArgs) error {
			if !arDone {
				return fmt.Errorf("optimizer ran before all-reduce")
			}
			return nil
		},
	}
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	devs := [2]*gpu.Device{}
	drvs := [2]*Driver{}
	for i := range devs {
		devs[i] = gpu.NewDevice(env, 0, i, 1<<34)
		d, err := NewDriver(devs[i], engine, kernels, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		drvs[i] = d
	}
	for rank := 0; rank < 2; rank++ {
		rank := rank
		env.Go(fmt.Sprintf("rank%d", rank), func(p *vclock.Proc) {
			drv := drvs[rank]
			comm, err := drv.CommInit(p, "dp", 0, 2, rank)
			if err != nil {
				t.Error(err)
				return
			}
			compute, _ := drv.StreamCreate(p)
			comms, _ := drv.StreamCreate(p)
			grads, _ := drv.Malloc(p, 1<<26, 4, "grads")
			drv.MemcpyH2D(p, grads, []float32{1, 1, 1, 1}, compute)
			drv.StreamSynchronize(p, compute)

			// Figure 3: AR on comm stream; E after it; SWE on compute; OPT.
			if rank == 1 {
				p.Sleep(vclock.Seconds(2)) // skew rank 1's arrival
			}
			drv.AllReduce(p, comm, grads, comms)
			ev, _ := drv.EventCreate(p)
			drv.EventRecord(p, ev, comms)
			drv.StreamWaitEvent(p, compute, ev)
			drv.Launch(p, LaunchParams{Kernel: "opt", Dur: vclock.Millisecond, Bufs: []Buf{grads}}, compute)
			drv.StreamSynchronize(p, compute)
			if rank == 0 {
				optRanAt = p.Now()
			}
		})
	}
	// Mark all-reduce completion via a monitor on rank 0's comm stream.
	env.Go("observer", func(p *vclock.Proc) {
		p.Sleep(vclock.Seconds(2)) // after rank 1 issues; AR roughly completes
		arDone = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if optRanAt < vclock.Seconds(2) {
		t.Fatalf("optimizer at %v ran before the skewed all-reduce completed", optRanAt)
	}
}

func TestEventQuerySemantics(t *testing.T) {
	r := newRig(t, Registry{"nop": func(KernelArgs) error { return nil }})
	r.inProc(t, func(p *vclock.Proc) {
		ev, _ := r.drv.EventCreate(p)
		// Unrecorded event: complete.
		if done, err := r.drv.EventQuery(p, ev); !done || err != nil {
			t.Errorf("unrecorded query = %v, %v", done, err)
		}
		s, _ := r.drv.StreamCreate(p)
		r.drv.Launch(p, LaunchParams{Kernel: "nop", Dur: vclock.Seconds(5)}, s)
		r.drv.EventRecord(p, ev, s)
		if done, _ := r.drv.EventQuery(p, ev); done {
			t.Error("event reported complete while kernel pending")
		}
		p.Sleep(vclock.Seconds(6))
		if done, err := r.drv.EventQuery(p, ev); !done || err != nil {
			t.Errorf("query after completion = %v, %v", done, err)
		}
	})
	_ = r
}

func TestStreamWaitEventOrdersAcrossStreams(t *testing.T) {
	order := []string{}
	kernels := Registry{
		"a": func(KernelArgs) error { order = append(order, "a"); return nil },
		"b": func(KernelArgs) error { order = append(order, "b"); return nil },
	}
	r := newRig(t, kernels)
	r.inProc(t, func(p *vclock.Proc) {
		s1, _ := r.drv.StreamCreate(p)
		s2, _ := r.drv.StreamCreate(p)
		ev, _ := r.drv.EventCreate(p)
		r.drv.Launch(p, LaunchParams{Kernel: "a", Dur: vclock.Seconds(5)}, s1)
		r.drv.EventRecord(p, ev, s1)
		r.drv.StreamWaitEvent(p, s2, ev)
		r.drv.Launch(p, LaunchParams{Kernel: "b", Dur: vclock.Millisecond}, s2)
		r.drv.StreamSynchronize(p, s2)
	})
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

// TestReRecordKeepsWhatAWaitCaptured: an event recorded again while its
// earlier record is pending, or still waited on, gets a record of its own —
// EventQuery reads the latest, and a StreamWaitEvent issued before waits for
// the record it captured — and once nothing holds the old one a record is
// reused with a fresh completion.
func TestReRecordKeepsWhatAWaitCaptured(t *testing.T) {
	r := newRig(t, Registry{"nop": func(KernelArgs) error { return nil }})
	r.inProc(t, func(p *vclock.Proc) {
		var s [3]Stream
		for i := range s {
			s[i], _ = r.drv.StreamCreate(p)
		}
		ev, _ := r.drv.EventCreate(p)
		busy := func(st Stream, d float64) {
			r.drv.Launch(p, LaunchParams{Kernel: "nop", Dur: vclock.Seconds(d)}, st)
		}
		// Pending, not waited on: the earlier record's completion at 5s is
		// not the event's, the later one's at 10s is.
		t0 := p.Now()
		busy(s[0], 5)
		r.drv.EventRecord(p, ev, s[0])
		busy(s[1], 10)
		r.drv.EventRecord(p, ev, s[1])
		p.Sleep(t0 + vclock.Seconds(6) - p.Now())
		if done, _ := r.drv.EventQuery(p, ev); done {
			t.Error("at 6s the event reads done: its record at 10s was given the one completed at 5s")
		}
		r.drv.DeviceSynchronize(p)
		// Completed, still waited on: a wait op queued behind a 10s kernel
		// captured the record that completes at 5s; re-recorded at 6s behind
		// a 20s kernel, the wait must still end at 10s.
		t0 = p.Now()
		busy(s[0], 5)
		r.drv.EventRecord(p, ev, s[0])
		busy(s[2], 10)
		r.drv.StreamWaitEvent(p, s[2], ev)
		p.Sleep(t0 + vclock.Seconds(6) - p.Now())
		busy(s[1], 20)
		r.drv.EventRecord(p, ev, s[1])
		r.drv.StreamSynchronize(p, s[2])
		if got := p.Now() - t0; got > vclock.Seconds(11) {
			t.Errorf("the wait ended after %v, not at 10s: it waited for a record issued after it", got)
		}
		r.drv.DeviceSynchronize(p)
		// Nothing holds it: each round reuses the record.
		for i := 0; i < 2; i++ {
			busy(s[0], 3)
			r.drv.EventRecord(p, ev, s[0])
			if done, _ := r.drv.EventQuery(p, ev); done {
				t.Errorf("round %d: a record behind a pending kernel reads done", i)
			}
			r.drv.StreamSynchronize(p, s[0])
			if done, err := r.drv.EventQuery(p, ev); !done || err != nil {
				t.Errorf("round %d: query after the stream drained = %v, %v", i, done, err)
			}
		}
	})
}

func TestStickyErrorSurfacesOnAPICalls(t *testing.T) {
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		b, _ := r.drv.Malloc(p, 64, 1, "x")
		r.dev.InjectSticky()
		if _, err := r.drv.Malloc(p, 64, 1, "y"); !errors.Is(err, gpu.ErrSticky) {
			t.Errorf("Malloc err = %v", err)
		}
		if _, err := r.drv.MemcpyD2H(p, b, DefaultStream); !errors.Is(err, gpu.ErrSticky) {
			t.Errorf("MemcpyD2H err = %v", err)
		}
		if err := r.drv.StreamSynchronize(p, DefaultStream); !errors.Is(err, gpu.ErrSticky) {
			t.Errorf("StreamSynchronize err = %v", err)
		}
	})
}

func TestDeviceSynchronizeDrainsAllStreams(t *testing.T) {
	r := newRig(t, Registry{"nop": func(KernelArgs) error { return nil }})
	r.inProc(t, func(p *vclock.Proc) {
		s1, _ := r.drv.StreamCreate(p)
		s2, _ := r.drv.StreamCreate(p)
		r.drv.Launch(p, LaunchParams{Kernel: "nop", Dur: vclock.Seconds(2)}, s1)
		r.drv.Launch(p, LaunchParams{Kernel: "nop", Dur: vclock.Seconds(4)}, s2)
		t0 := p.Now()
		if err := r.drv.DeviceSynchronize(p); err != nil {
			t.Error(err)
		}
		if p.Now()-t0 < vclock.Seconds(4) {
			t.Errorf("DeviceSynchronize returned after %v", p.Now()-t0)
		}
	})
}

// TestBufChecksum: with intercept.TestVirtualBufsListsLiveSet, what
// TestBufListAndChecksum asserted before BufList left the API.
func TestBufChecksum(t *testing.T) {
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		b1, _ := r.drv.Malloc(p, 128, 2, "param.w")
		b2, _ := r.drv.Malloc(p, 256, 2, "param.w")
		r.drv.MemcpyH2D(p, b1, []float32{1, 2}, DefaultStream)
		r.drv.MemcpyH2D(p, b2, []float32{1, 2}, DefaultStream)
		r.drv.StreamSynchronize(p, DefaultStream)
		c1, _ := r.drv.BufChecksum(p, b1)
		c2, _ := r.drv.BufChecksum(p, b2)
		if c1 != c2 {
			t.Error("identical contents produced different checksums")
		}
	})
}

func TestFreeInvalidatesHandle(t *testing.T) {
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		b, _ := r.drv.Malloc(p, 64, 1, "x")
		if err := r.drv.Free(p, b); err != nil {
			t.Error(err)
		}
		if err := r.drv.Free(p, b); !errors.Is(err, ErrBadHandle) {
			t.Errorf("double free = %v", err)
		}
		if _, err := r.drv.MemcpyD2H(p, b, DefaultStream); !errors.Is(err, ErrBadHandle) {
			t.Errorf("use after free = %v", err)
		}
	})
}

// TestBadHandles: in every handle space a handle never made, negative,
// destroyed or (but for the default stream) 0 is ErrBadHandle; a buffer
// handle whose device has since been repaired is the device's ErrNoSuchBuf,
// and buffers allocated after the repair resolve. The handle tables are
// slices indexed by handle; these are the answers the maps gave.
func TestBadHandles(t *testing.T) {
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		b, _ := r.drv.Malloc(p, 64, 1, "b")
		s, _ := r.drv.StreamCreate(p)
		ev, _ := r.drv.EventCreate(p)
		r.drv.Free(p, b)
		r.drv.StreamDestroy(p, s)
		r.drv.EventDestroy(p, ev)
		for _, h := range []Buf{0, -1, 99, b} {
			if _, err := r.drv.BufChecksum(p, h); !errors.Is(err, ErrBadHandle) {
				t.Errorf("buf %d: %v", h, err)
			}
		}
		for _, h := range []Stream{-1, 99, s} {
			if err := r.drv.StreamSynchronize(p, h); !errors.Is(err, ErrBadHandle) {
				t.Errorf("stream %d: %v", h, err)
			}
		}
		for _, h := range []Event{0, -1, 99, ev} {
			if _, err := r.drv.EventQuery(p, h); !errors.Is(err, ErrBadHandle) {
				t.Errorf("event %d: %v", h, err)
			}
		}
		for _, h := range []Comm{0, -1, 99} {
			if err := r.drv.AllReduce(p, h, 0, DefaultStream); !errors.Is(err, ErrBadHandle) {
				t.Errorf("comm %d: %v", h, err)
			}
		}
		kept, _ := r.drv.Malloc(p, 64, 1, "b")
		r.dev.Repair()
		if _, err := r.drv.BufChecksum(p, kept); !errors.Is(err, gpu.ErrNoSuchBuf) {
			t.Errorf("a buffer the repair took: %v", err)
		}
		after, err := r.drv.Malloc(p, 64, 1, "b")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.drv.BufChecksum(p, after); err != nil {
			t.Errorf("a buffer allocated after the repair: %v", err)
		}
		if _, err := r.drv.BufChecksum(p, kept); !errors.Is(err, gpu.ErrNoSuchBuf) {
			t.Errorf("a buffer the repair took, once the device allocates again: %v", err)
		}
	})
}

// opFixture holds one live object in every handle space of a driver.
type opFixture struct {
	b, b2 Buf
	s     Stream
	ev    Event
	c     Comm
}

// newOpFixture makes them: two two-element buffers, a stream, an event
// recorded on it, a one-rank communicator, all drained.
func newOpFixture(p *vclock.Proc, drv *Driver) (f opFixture) {
	f.b, _ = drv.Malloc(p, 64, 2, "b")
	f.b2, _ = drv.Malloc(p, 64, 2, "b2")
	f.s, _ = drv.StreamCreate(p)
	f.ev, _ = drv.EventCreate(p)
	drv.EventRecord(p, f.ev, f.s)
	f.c, _ = drv.CommInit(p, "fixture", 0, 1, 0)
	drv.DeviceSynchronize(p)
	return f
}

// call builds a call of op that names f's objects in the fields the op
// table says op reads. Every other object-naming field is zero, or with
// junk set names nothing the driver made.
func (f opFixture) call(op Op, junk bool) Call {
	c := Call{Op: op, Bytes: 64, Elems: 2, Tag: "t", Data: []float32{1, 2}, Key: "k", NRanks: 1}
	if junk {
		c.Buf, c.Buf2, c.Stream, c.Event, c.Comm = 77, 77, 77, 77, 77
		c.Launch = LaunchParams{Kernel: "junk", Bufs: []Buf{77}}
	}
	uses := op.Info().uses
	if uses&useBuf != 0 {
		c.Buf = f.b
	}
	if uses&useBuf2 != 0 {
		c.Buf2 = f.b2
	}
	if uses&useStream != 0 {
		c.Stream = f.s
	}
	if uses&useEvent != 0 {
		c.Event = f.ev
	}
	if uses&useComm != 0 {
		c.Comm = f.c
	}
	if uses&useKernel != 0 {
		c.Launch.Kernel, c.Launch.Dur = "nop", vclock.Millisecond
	}
	if uses&useLaunchBufs != 0 {
		c.Launch.Bufs = []Buf{f.b, f.b2}
	}
	return c
}

// unmade returns c with the handle field bit names set to a handle no call
// made: for a launch's buffers, one of two.
func unmade(c Call, bit handleFields) Call {
	switch bit {
	case useBuf:
		c.Buf = 99
	case useBuf2:
		c.Buf2 = 99
	case useStream:
		c.Stream = 99
	case useEvent:
		c.Event = 99
	case useComm:
		c.Comm = 99
	case useLaunchBufs:
		c.Launch.Bufs = []Buf{c.Launch.Bufs[0], 99}
	}
	return c
}

// opOutcome is what one Driver.Do left behind: its outputs, the ops still
// queued on the device right after it returned, and the virtual time it took.
type opOutcome struct {
	res     Result
	err     string
	pending int
	took    vclock.Time
}

func doOp(p *vclock.Proc, drv *Driver, c Call) opOutcome {
	t0 := p.Now()
	res, err := drv.Do(p, c)
	return opOutcome{res, fmt.Sprint(err), drv.dev.PendingOps(), p.Now() - t0}
}

// TestDriverReadsWhatTheOpTableSays: for every op, the driver looks up
// exactly the fields the op table's uses column names. A handle no call
// made in any one of them is an ErrBadHandle that enqueues nothing and
// costs the call latency: slept by a synchronising op, owed by an async
// one. Junk in every field the op does not read changes nothing the call
// returns, queues or takes.
func TestDriverReadsWhatTheOpTableSays(t *testing.T) {
	kernels := Registry{"nop": func(KernelArgs) error { return nil }}
	latency := DefaultParams().CallLatency
	for op := Op(0); op < numOps; op++ {
		t.Run(op.String(), func(t *testing.T) {
			var clean, junk opOutcome
			slept, owed := latency, vclock.Time(0)
			if op.Info().Async {
				slept, owed = 0, latency
			}
			a, b := newRig(t, kernels), newRig(t, kernels)
			a.inProc(t, func(p *vclock.Proc) {
				f := newOpFixture(p, a.drv)
				for bit := useBuf; bit <= useLaunchBufs; bit <<= 1 {
					if op.Info().uses&bit == 0 {
						continue
					}
					t0 := p.Now()
					_, err := a.drv.Do(p, unmade(f.call(op, false), bit))
					if !errors.Is(err, ErrBadHandle) {
						t.Errorf("field %#x never made: err = %v, want ErrBadHandle", bit, err)
					}
					if n, took := a.dev.PendingOps(), p.Now()-t0; n != 0 || took != slept {
						t.Errorf("field %#x never made: %d ops queued after %v, want none after %v", bit, n, took, slept)
					}
					if debt := p.Settle(); debt != owed {
						t.Errorf("field %#x never made: %v owed, want %v", bit, debt, owed)
					}
				}
				clean = doOp(p, a.drv, f.call(op, false))
			})
			b.inProc(t, func(p *vclock.Proc) {
				junk = doOp(p, b.drv, newOpFixture(p, b.drv).call(op, true))
			})
			if !reflect.DeepEqual(junk, clean) {
				t.Errorf("junk in unread fields: %+v, want %+v", junk, clean)
			}
			if clean.err != "<nil>" {
				t.Errorf("a call naming live objects failed: %s", clean.err)
			}
			if op.Info().Async && clean.pending == 0 {
				t.Error("an async call queued nothing: the enqueue probe sees nothing")
			}
		})
	}
}

func TestCheckpointDeadlockScenario(t *testing.T) {
	// §3.2: the default stream is blocked by a StreamWaitEvent on a hung
	// collective. A D2H memcpy on the default stream deadlocks; the same
	// copy on a fresh stream completes. This is the behaviour the
	// user-level library's cudaMemcpy interception relies on.
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	drv, err := NewDriver(dev, engine, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 joins the rendezvous so CommInit completes, then never issues
	// its side of the all-reduce: rank 0's collective hangs forever.
	env.Go("rank1", func(p *vclock.Proc) {
		if _, err := engine.CommInitRank(p, "dp", 0, 2, 1, nil); err != nil {
			t.Error(err)
		}
	})
	var defaultHung, freshWorked bool
	env.Go("rank0", func(p *vclock.Proc) {
		comm, err := drv.CommInit(p, "dp", 0, 2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		commStream, _ := drv.StreamCreate(p)
		grads, _ := drv.Malloc(p, 1<<20, 2, "grads")
		params, _ := drv.Malloc(p, 1<<20, 2, "params")
		drv.MemcpyH2D(p, params, []float32{5, 6}, DefaultStream)
		drv.StreamSynchronize(p, DefaultStream)

		// Figure 3 wiring: AR on comm stream, event after it, default
		// stream waits on the event. Rank 1 never joins → hang.
		drv.AllReduce(p, comm, grads, commStream)
		ev, _ := drv.EventCreate(p)
		drv.EventRecord(p, ev, commStream)
		drv.StreamWaitEvent(p, DefaultStream, ev)

		// Checkpoint attempt on the default stream: deadlocks.
		sub := p.Env().Go("ckpt-default", func(cp *vclock.Proc) {
			drv.MemcpyD2H(cp, params, DefaultStream)
			defaultHung = false
		})
		defaultHung = true
		p.Sleep(vclock.Seconds(30))
		sub.Kill()

		// Checkpoint on a fresh stream: completes (the interception fix).
		fresh, _ := drv.StreamCreate(p)
		data, err := drv.MemcpyD2H(p, params, fresh)
		if err == nil && len(data) == 2 && data[0] == 5 {
			freshWorked = true
		}
	})
	if err := env.RunUntil(vclock.Hour); err != nil {
		t.Fatal(err)
	}
	if !defaultHung {
		t.Fatal("memcpy on blocked default stream should deadlock")
	}
	if !freshWorked {
		t.Fatal("memcpy on fresh stream should complete during the hang")
	}
}

func BenchmarkKernelLaunch(b *testing.B) {
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	drv, err := NewDriver(dev, engine, Registry{"nop": func(KernelArgs) error { return nil }}, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	env.Go("worker", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			drv.Launch(p, LaunchParams{Kernel: "nop", Dur: vclock.Microsecond}, DefaultStream)
			if i%256 == 0 {
				drv.StreamSynchronize(p, DefaultStream)
			}
		}
		drv.StreamSynchronize(p, DefaultStream)
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestDriverCollectiveSurface drives the remaining collective entry points
// (AllGather, ReduceScatter, Send/Recv) through the
// driver API across two ranks.
func TestDriverCollectiveSurface(t *testing.T) {
	env := vclock.NewEnv(1)
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	var drvs [2]*Driver
	for i := 0; i < 2; i++ {
		dev := gpu.NewDevice(env, 0, i, 1<<34)
		d, err := NewDriver(dev, engine, nil, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		drvs[i] = d
	}
	results := make([][]float32, 2)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		env.Go(fmt.Sprintf("rank%d", rank), func(p *vclock.Proc) {
			drv := drvs[rank]
			comm, err := drv.CommInit(p, "all", 0, 2, rank)
			if err != nil {
				t.Error(err)
				return
			}
			// AllGather both ranks' scalars.
			in, _ := drv.Malloc(p, 32, 1, "in")
			out, _ := drv.Malloc(p, 64, 2, "out")
			drv.MemcpyH2D(p, in, []float32{float32(rank + 1)}, DefaultStream)
			if err := drv.AllGather(p, comm, in, out, DefaultStream); err != nil {
				t.Error(err)
			}
			// ReduceScatter a 2-vector.
			rsIn, _ := drv.Malloc(p, 64, 2, "rsin")
			rsOut, _ := drv.Malloc(p, 32, 1, "rsout")
			drv.MemcpyH2D(p, rsIn, []float32{1, 10}, DefaultStream)
			if err := drv.ReduceScatter(p, comm, rsIn, rsOut, DefaultStream); err != nil {
				t.Error(err)
			}
			// P2P ping: rank 0 sends, rank 1 receives.
			pp, _ := drv.Malloc(p, 32, 1, "p2p")
			if rank == 0 {
				drv.MemcpyH2D(p, pp, []float32{42}, DefaultStream)
				if err := drv.Send(p, comm, pp, 1, DefaultStream); err != nil {
					t.Error(err)
				}
			} else {
				if err := drv.Recv(p, comm, pp, 0, DefaultStream); err != nil {
					t.Error(err)
				}
			}
			og, _ := drv.MemcpyD2H(p, out, DefaultStream)
			rs, _ := drv.MemcpyD2H(p, rsOut, DefaultStream)
			p2, _ := drv.MemcpyD2H(p, pp, DefaultStream)
			results[rank] = append(append(append([]float32{}, og...), rs...), p2...)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// rank 1: gather [1 2], reduce-scatter chunk1 = 20, p2p 42.
	want1 := tensor.Vector{1, 2, 20, 42}
	if !tensor.Vector(results[1]).Equal(want1) {
		t.Fatalf("rank 1 results = %v, want %v", results[1], want1)
	}
	// rank 0: reduce-scatter chunk0 = 2, p2p buffer holds its own 42.
	want0 := tensor.Vector{1, 2, 2, 42}
	if !tensor.Vector(results[0]).Equal(want0) {
		t.Fatalf("rank 0 results = %v, want %v", results[0], want0)
	}
}

// TestDriverBufDataPrivilegedRead covers the infrastructure-side read path
// the recovery controller uses.
func TestDriverBufDataPrivilegedRead(t *testing.T) {
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		b, _ := r.drv.Malloc(p, 64, 2, "w")
		r.drv.MemcpyH2D(p, b, []float32{3, 4}, DefaultStream)
		r.drv.StreamSynchronize(p, DefaultStream)

		// Healthy: readable.
		data, err := r.drv.BufData(b)
		if err != nil || !data.Equal(tensor.Vector{3, 4}) {
			t.Errorf("healthy BufData = %v, %v", data, err)
		}
		// Corrupt driver: API calls fail, BufData still works (§4.2
		// strategy 2's "GPU is still accessible").
		r.dev.InjectDriverCorrupt()
		if _, err := r.drv.Malloc(p, 1, 0, "x"); !errors.Is(err, gpu.ErrCorrupt) {
			t.Errorf("Malloc under corruption = %v", err)
		}
		if _, err := r.drv.BufData(b); err != nil {
			t.Errorf("BufData under corruption = %v", err)
		}
		// Sticky: state not accessible (strategy 3).
		r.dev.InjectSticky()
		if _, err := r.drv.BufData(b); !errors.Is(err, gpu.ErrSticky) {
			t.Errorf("BufData under sticky = %v", err)
		}
	})
}

// TestAsyncErrorPropagation pins the NCCL-watchdog-style error plumbing:
// an op that fails asynchronously poisons its stream, an event recorded
// after it carries the poison, a stream that waits on that event is
// poisoned in turn, and StreamSynchronize on either stream surfaces the
// error instead of reporting a clean drain.
func TestAsyncErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	r := newRig(t, Registry{
		"boom": func(KernelArgs) error { return boom },
		"nop":  func(KernelArgs) error { return nil },
	})
	r.inProc(t, func(p *vclock.Proc) {
		sA, _ := r.drv.StreamCreate(p)
		sB, _ := r.drv.StreamCreate(p)
		sC, _ := r.drv.StreamCreate(p)
		if err := r.drv.Launch(p, LaunchParams{Kernel: "boom", Dur: vclock.Millisecond}, sA); err != nil {
			t.Fatalf("launch is async, must not fail inline: %v", err)
		}
		ev, _ := r.drv.EventCreate(p)
		r.drv.EventRecord(p, ev, sA)
		r.drv.StreamWaitEvent(p, sB, ev)
		r.drv.Launch(p, LaunchParams{Kernel: "nop", Dur: vclock.Millisecond}, sB)

		if err := r.drv.StreamSynchronize(p, sA); !errors.Is(err, boom) {
			t.Errorf("sync of failed stream = %v, want boom", err)
		}
		if done, err := r.drv.EventQuery(p, ev); !done || !errors.Is(err, boom) {
			t.Errorf("query of poisoned event = %v, %v, want done with boom", done, err)
		}
		if err := r.drv.StreamSynchronize(p, sB); !errors.Is(err, boom) {
			t.Errorf("sync of event-poisoned stream = %v, want boom", err)
		}
		// An uninvolved stream stays clean.
		r.drv.Launch(p, LaunchParams{Kernel: "nop", Dur: vclock.Millisecond}, sC)
		if err := r.drv.StreamSynchronize(p, sC); err != nil {
			t.Errorf("clean stream sync = %v", err)
		}
	})
}

// wantOps is the op table written out by hand rather than derived from it,
// so an edit that changes which calls the proxy client waits for (async),
// the watchdog ages (tracked) or the replay log records (mutating,
// creates, destroys) has to be made twice. The values are the ones the
// proxy's, the interception layer's and the replay log's own per-method
// lists held before the table replaced them.
var wantOps = []struct {
	op                       Op
	name                     string
	async, tracked, mutating bool
	creates, destroys        HandleKind
}{
	{OpMalloc, "Malloc", false, true, true, BufHandle, NoHandle},
	{OpFree, "Free", false, true, true, NoHandle, BufHandle},
	{OpMemcpyH2D, "MemcpyH2D", true, false, true, NoHandle, NoHandle},
	{OpMemcpyD2H, "MemcpyD2H", false, true, false, NoHandle, NoHandle},
	{OpStreamCreate, "StreamCreate", false, true, true, StreamHandle, NoHandle},
	{OpStreamDestroy, "StreamDestroy", false, true, true, NoHandle, StreamHandle},
	{OpStreamSynchronize, "StreamSynchronize", false, true, false, NoHandle, NoHandle},
	{OpStreamWaitEvent, "StreamWaitEvent", true, false, true, NoHandle, NoHandle},
	{OpEventCreate, "EventCreate", false, true, true, EventHandle, NoHandle},
	{OpEventRecord, "EventRecord", true, false, true, NoHandle, NoHandle},
	{OpEventQuery, "EventQuery", false, false, false, NoHandle, NoHandle},
	{OpEventDestroy, "EventDestroy", false, true, true, NoHandle, EventHandle},
	{OpLaunch, "Launch", true, false, true, NoHandle, NoHandle},
	{OpDeviceSynchronize, "DeviceSynchronize", false, true, false, NoHandle, NoHandle},
	{OpBufChecksum, "BufChecksum", false, true, false, NoHandle, NoHandle},
	{OpCommInit, "CommInit", false, false, true, CommHandle, NoHandle},
	{OpCommDestroy, "CommDestroy", false, true, true, NoHandle, CommHandle},
	{OpAllReduce, "AllReduce", true, false, true, NoHandle, NoHandle},
	{OpAllGather, "AllGather", true, false, true, NoHandle, NoHandle},
	{OpReduceScatter, "ReduceScatter", true, false, true, NoHandle, NoHandle},
	{OpSend, "Send", true, false, true, NoHandle, NoHandle},
	{OpRecv, "Recv", true, false, true, NoHandle, NoHandle},
}

func TestOpTableColumns(t *testing.T) {
	if len(wantOps) != int(numOps) {
		t.Fatalf("transcribed %d ops, table has %d", len(wantOps), numOps)
	}
	for i, w := range wantOps {
		if int(w.op) != i {
			t.Fatalf("row %d is %v: rows must follow the Op order", i, w.op)
		}
		got := w.op.Info()
		want := OpInfo{Name: w.name, Async: w.async, Tracked: w.tracked, Mutating: w.mutating,
			Creates: w.creates, Destroys: w.destroys, uses: got.uses}
		if got != want {
			t.Errorf("%v: table row %+v, want %+v", w.op, got, want)
		}
		if w.op.String() != w.name {
			t.Errorf("Op(%d).String() = %q, want %q", i, w.op, w.name)
		}
	}
	bad := Op(200)
	if bad.String() == "" || bad.Info().Async || bad.Info().Mutating {
		t.Errorf("out-of-range op: String %q, Info %+v", bad, bad.Info())
	}
	r := newRig(t, nil)
	r.inProc(t, func(p *vclock.Proc) {
		if _, err := r.drv.Do(p, Call{Op: bad}); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("Driver.Do(out-of-range op) = %v, want an unknown-op error", err)
		}
	})
}

// opStep is one API call of the script TestCallRoundTripMatchesDirectCall
// runs; h holds the handles earlier steps produced.
type opStep struct {
	op   Op
	call func(p *vclock.Proc, api API, h *opHandles) (any, error)
}

type opHandles struct {
	b, b2 Buf
	s     Stream
	ev    Event
	c     Comm
}

func errOnly(err error) (any, error) { return nil, err }

// opScript exercises every API method at least once, including calls that
// fail with a sentinel error.
var opScript = []opStep{
	{OpMalloc, func(p *vclock.Proc, api API, h *opHandles) (r any, err error) {
		h.b, err = api.Malloc(p, 64, 2, "w")
		return h.b, err
	}},
	{OpMalloc, func(p *vclock.Proc, api API, h *opHandles) (r any, err error) {
		h.b2, err = api.Malloc(p, 64, 2, "w2")
		return h.b2, err
	}},
	{OpStreamCreate, func(p *vclock.Proc, api API, h *opHandles) (r any, err error) {
		h.s, err = api.StreamCreate(p)
		return h.s, err
	}},
	{OpEventCreate, func(p *vclock.Proc, api API, h *opHandles) (r any, err error) {
		h.ev, err = api.EventCreate(p)
		return h.ev, err
	}},
	{OpCommInit, func(p *vclock.Proc, api API, h *opHandles) (r any, err error) {
		h.c, err = api.CommInit(p, "dp", 0, 1, 0)
		return h.c, err
	}},
	{OpMemcpyH2D, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.MemcpyH2D(p, h.b, []float32{1, 2}, h.s))
	}},
	{OpLaunch, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		lp := LaunchParams{Kernel: "scale", Dur: vclock.Millisecond, Bufs: []Buf{h.b}, IArgs: []int64{3}, FArgs: []float32{2}}
		return errOnly(api.Launch(p, lp, h.s))
	}},
	{OpLaunch, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.Launch(p, LaunchParams{Kernel: "nope"}, h.s)) // ErrUnknownKernel
	}},
	{OpAllReduce, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.AllReduce(p, h.c, h.b, h.s))
	}},
	{OpAllGather, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.AllGather(p, h.c, h.b, h.b2, h.s))
	}},
	{OpReduceScatter, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.ReduceScatter(p, h.c, h.b, h.b2, h.s))
	}},
	{OpSend, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.Send(p, h.c, h.b, 5, h.s)) // nccl.ErrInvalidRank
	}},
	{OpRecv, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.Recv(p, h.c, h.b, 5, h.s)) // nccl.ErrInvalidRank
	}},
	{OpEventRecord, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.EventRecord(p, h.ev, h.s))
	}},
	{OpStreamWaitEvent, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.StreamWaitEvent(p, DefaultStream, h.ev))
	}},
	{OpEventQuery, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return api.EventQuery(p, h.ev) // still pending
	}},
	{OpStreamSynchronize, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.StreamSynchronize(p, h.s))
	}},
	{OpEventQuery, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return api.EventQuery(p, h.ev) // complete
	}},
	{OpDeviceSynchronize, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.DeviceSynchronize(p))
	}},
	{OpMemcpyD2H, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return api.MemcpyD2H(p, h.b, h.s)
	}},
	{OpMemcpyD2H, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return api.MemcpyD2H(p, 99, h.s) // ErrBadHandle
	}},
	{OpBufChecksum, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return api.BufChecksum(p, h.b)
	}},
	{OpFree, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.Free(p, h.b2))
	}},
	{OpFree, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.Free(p, h.b2)) // ErrBadHandle: already freed
	}},
	{OpEventDestroy, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.EventDestroy(p, h.ev))
	}},
	{OpStreamDestroy, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.StreamDestroy(p, h.s))
	}},
	{OpCommDestroy, func(p *vclock.Proc, api API, h *opHandles) (any, error) {
		return errOnly(api.CommDestroy(p, h.c))
	}},
}

// doFunc is a Doer that is a function.
type doFunc func(p *vclock.Proc, c Call) (Result, error)

func (f doFunc) Do(p *vclock.Proc, c Call) (Result, error) { return f(p, c) }

// TestCallRoundTripMatchesDirectCall runs the same script twice on twin
// drivers: once through the driver's own typed methods, once through a
// separate Adapter that hands Driver.Do a clone of every Call and then
// overwrites the caller's argument slices — the proxy wire's path. Each
// step must name the expected Op and return what the typed call returns:
// equal results, and errors with the same text and the same sentinel
// identity.
func TestCallRoundTripMatchesDirectCall(t *testing.T) {
	kernels := Registry{"scale": func(a KernelArgs) error {
		for i := range a.Bufs[0] {
			a.Bufs[0][i] = a.Bufs[0][i]*a.FArgs[0] + float32(a.IArgs[0])
		}
		return nil
	}}
	sentinels := []error{ErrBadHandle, ErrUnknownKernel, nccl.ErrInvalidRank, nccl.ErrBufSizes}
	direct, wired := newRig(t, kernels), newRig(t, kernels)
	type outcome struct {
		res any
		err error
	}
	var want []outcome
	direct.inProc(t, func(p *vclock.Proc) {
		var h opHandles
		for _, step := range opScript {
			res, err := step.call(p, direct.drv, &h)
			want = append(want, outcome{res, err})
		}
	})
	covered := make(map[Op]bool)
	wired.inProc(t, func(p *vclock.Proc) {
		var seen Op
		overWire := doFunc(func(p *vclock.Proc, c Call) (Result, error) {
			var back Call
			c.CloneInto(&back)
			scribble(c)
			seen = back.Op
			return wired.drv.Do(p, back)
		})
		api := struct {
			Adapter
			doFunc
		}{Adapt(overWire), overWire}
		var h opHandles
		for i, step := range opScript {
			res, err := step.call(p, api, &h)
			if seen != step.op {
				t.Errorf("step %d: adapter built a %v call, want %v", i, seen, step.op)
			}
			covered[seen] = true
			if !reflect.DeepEqual(res, want[i].res) {
				t.Errorf("step %d (%v): result %v, direct call returned %v", i, step.op, res, want[i].res)
			}
			if fmt.Sprint(err) != fmt.Sprint(want[i].err) {
				t.Errorf("step %d (%v): error %v, direct call returned %v", i, step.op, err, want[i].err)
			}
			for _, s := range sentinels {
				if errors.Is(err, s) != errors.Is(want[i].err, s) {
					t.Errorf("step %d (%v): errors.Is(%v) differs from the direct call", i, step.op, s)
				}
			}
		}
	})
	for op := Op(0); op < numOps; op++ {
		if !covered[op] {
			t.Errorf("script never calls %v", op)
		}
	}
}

// scribble overwrites every element of c's argument slices, as a caller
// reusing them for its next call would.
func scribble(c Call) {
	for i := range c.Data {
		c.Data[i] = -1
	}
	for i := range c.Launch.Bufs {
		c.Launch.Bufs[i] = 99
	}
	for i := range c.Launch.IArgs {
		c.Launch.IArgs[i] = -7
	}
	for i := range c.Launch.FArgs {
		c.Launch.FArgs[i] = -3
	}
}

// sliceFields appends the slice fields of struct v, nested structs
// included, to out by name. A field that would share memory some other way
// (map, pointer, interface) is an error: CloneInto could not capture it.
func sliceFields(t *testing.T, v reflect.Value, path string, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			sliceFields(t, f, name+".", out)
		case reflect.Slice:
			out[name] = f
		case reflect.Map, reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("Call.%s is a %v: a clone would share it", name, f.Kind())
		}
	}
}

// TestCallCloneCopiesEverySlice walks Call, LaunchParams included, by
// reflection: it fills every slice field with [0 1], clones, then writes 7
// over the original, and every slice of the clone must still read [0 1]. A
// slice field CloneInto does not copy, including one added to Call later, fails
// here.
func TestCallCloneCopiesEverySlice(t *testing.T) {
	var orig Call
	fields := map[string]reflect.Value{}
	sliceFields(t, reflect.ValueOf(&orig).Elem(), "", fields)
	if len(fields) < 4 {
		t.Fatalf("found %d slice fields, want Data and Launch's three at least", len(fields))
	}
	elem := func(f reflect.Value, x int) reflect.Value { return reflect.ValueOf(x).Convert(f.Type().Elem()) }
	for _, f := range fields {
		f.Set(reflect.MakeSlice(f.Type(), 2, 2))
		f.Index(1).Set(elem(f, 1))
	}
	var clone Call
	orig.CloneInto(&clone)
	for _, f := range fields {
		f.Index(0).Set(elem(f, 7))
		f.Index(1).Set(elem(f, 7))
	}
	cloned := map[string]reflect.Value{}
	sliceFields(t, reflect.ValueOf(&clone).Elem(), "", cloned)
	for name, f := range cloned {
		if f.Len() != 2 || !f.Index(0).Equal(elem(f, 0)) || !f.Index(1).Equal(elem(f, 1)) {
			t.Errorf("clone's %s = %v after writing the original, want [0 1]", name, f.Interface())
		}
	}
}

// TestHandlesTranslate: the default stream maps to itself in a new table,
// bound handles translate in every field the op reads, launch buffers land
// in the slice the caller lends, and a handle the table does not hold is an
// ErrBadHandle rather than a silent pass-through.
func TestHandlesTranslate(t *testing.T) {
	tr := NewHandles()
	if s, ok := Lookup(tr, StreamHandle, DefaultStream); !ok || s != DefaultStream {
		t.Fatal("default stream must map to itself")
	}
	tr.Bind(BufHandle, 5, 12)
	tr.Bind(BufHandle, 6, 13)
	tr.Bind(StreamHandle, 2, 7)
	tr.Bind(EventHandle, 9, 1)
	tr.Bind(CommHandle, 2, 4)
	got := Call{Op: OpAllGather, Comm: 2, Buf: 5, Buf2: 6, Stream: 2, Event: 9}
	if err := tr.Translate(&got, nil); err != nil {
		t.Fatal(err)
	}
	// AllGather does not read Event: it stays as it was.
	if got.Comm != 4 || got.Buf != 12 || got.Buf2 != 13 || got.Stream != 7 || got.Event != 9 {
		t.Errorf("AllGather translated to %+v", got)
	}
	held, lent := []Buf{5, 6}, make([]Buf, 1, 4)
	got = Call{Op: OpLaunch, Launch: LaunchParams{Bufs: held}}
	if err := tr.Translate(&got, lent); err != nil || len(got.Launch.Bufs) != 2 || got.Launch.Bufs[0] != 12 || got.Launch.Bufs[1] != 13 {
		t.Errorf("Launch bufs translated to %v (err %v)", got.Launch.Bufs, err)
	}
	if held[0] != 5 {
		t.Error("Translate wrote through the caller's Bufs slice")
	}
	if &got.Launch.Bufs[0] != &lent[0] {
		t.Error("Translate did not use the slice it was lent")
	}
	for _, c := range []Call{
		{Op: OpFree, Buf: 99},
		{Op: OpStreamSynchronize, Stream: 99},
		{Op: OpEventQuery, Event: 99},
		{Op: OpCommDestroy, Comm: 99},
		{Op: OpLaunch, Launch: LaunchParams{Bufs: []Buf{5, 99}}},
	} {
		if err := tr.Translate(&c, nil); !errors.Is(err, ErrBadHandle) {
			t.Errorf("%v with an unbound handle: err = %v, want ErrBadHandle", c.Op, err)
		}
	}
	clone := tr.Clone()
	clone.Bind(BufHandle, 5, 40)
	tr.Unbind(StreamHandle, 2)
	b, _ := Lookup(tr, BufHandle, Buf(5))
	if s, ok := Lookup(clone, StreamHandle, Stream(2)); b != 12 || !ok || s != 7 {
		t.Error("Clone shares tables with its source")
	}
	// A handle bound to 0 is bound; an unbound, destroyed or negative one is
	// not.
	tr.Bind(BufHandle, 3, 0)
	for _, c := range []struct {
		from Buf
		ok   bool
	}{{3, true}, {4, false}, {2, false}, {-1, false}, {1000, false}} {
		if _, ok := Lookup(tr, BufHandle, c.from); ok != c.ok {
			t.Errorf("Lookup of buf %d: bound = %v, want %v", c.from, ok, c.ok)
		}
	}
	if _, ok := Lookup(tr, StreamHandle, Stream(2)); ok {
		t.Error("an unbound stream still translates")
	}
}
