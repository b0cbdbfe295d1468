package cuda

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"jitckpt/internal/gpu"
	"jitckpt/internal/nccl"
	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// stepWorld is one run of the resumable-call script: two devices on one
// engine, the caller's driver on the first, and a log of what every call
// returned.
type stepWorld struct {
	env    *vclock.Env
	engine *nccl.Engine
	drv    *Driver // the caller's, on device 0
	peer   *Driver // a second rank's, on device 1
	log    strings.Builder
}

// scriptCall is one call of the script, with what the world does just
// before the caller makes it (the same in both runs: helpers are coroutines
// that call through Do).
type scriptCall struct {
	call   Call
	before func(w *stepWorld)
}

func (w *stepWorld) note(p *vclock.Proc, what string, r Result, err error) {
	fmt.Fprintf(&w.log, "%d %s %s -> %+v %v\n", p.Now(), p.Name(), what, r, err)
}

// helper spawns a coroutine that sleeps d, then makes c through drv.Do.
func (w *stepWorld) helper(name string, d vclock.Time, drv *Driver, c Call) {
	w.env.Go(name, func(p *vclock.Proc) {
		p.Sleep(d)
		r, err := drv.Do(p, c)
		w.note(p, c.Op.String(), r, err)
	})
}

// resumableScript covers every op that waits, each at the places it can
// wait, between calls that do not.
func resumableScript() []scriptCall {
	spin := func(s Stream, d vclock.Time) Call {
		return Call{Op: OpLaunch, Stream: s, Launch: LaunchParams{Kernel: "spin", Dur: d}}
	}
	initCall := func(key string, rank int) Call {
		return Call{Op: OpCommInit, Key: key, NRanks: 2, Rank: rank}
	}
	rank1 := func(key string, d vclock.Time) func(w *stepWorld) {
		return func(w *stepWorld) { w.helper("rank1."+key, d, w.peer, initCall(key, 1)) }
	}
	fault := func(key string, kind nccl.FaultKind) func(w *stepWorld) {
		return func(w *stepWorld) {
			w.engine.InjectFault(key, 0, kind) // the generation is not up yet: it lands on the rendezvous
			rank1(key, 0)(w)
		}
	}
	return []scriptCall{
		{call: Call{Op: OpMalloc, Bytes: 1 << 20, Elems: 2, Tag: "w"}}, // buf 1
		{call: Call{Op: OpMemcpyH2D, Buf: 1, Data: []float32{1, 2}}},
		{call: Call{Op: OpMemcpyD2H, Buf: 1}},
		{call: Call{Op: OpStreamCreate}}, // stream 1
		// An async burst: its latency is owed, and paid by the sync after it.
		{call: spin(1, 5*vclock.Millisecond)},
		{call: spin(1, vclock.Microsecond)},
		{call: spin(DefaultStream, vclock.Microsecond)},
		{call: Call{Op: OpStreamSynchronize, Stream: 1}}, // busy
		{call: Call{Op: OpLaunch, Stream: 1, Launch: LaunchParams{Kernel: "fail"}}},
		{call: Call{Op: OpStreamSynchronize, Stream: 1}}, // its async error
		{call: Call{Op: OpStreamCreate}},                 // stream 2
		{call: spin(DefaultStream, 3*vclock.Millisecond)},
		{call: spin(2, 7*vclock.Millisecond)},
		// Streams 0 and 2 busy, 1 drained, and stream 3 made (busy) while
		// the call waits on stream 0.
		{call: Call{Op: OpDeviceSynchronize}, before: func(w *stepWorld) {
			w.env.Go("creator", func(p *vclock.Proc) {
				p.Sleep(vclock.Millisecond)
				s, err := w.drv.StreamCreate(p)
				w.note(p, "StreamCreate", Result{Handle: int(s)}, err)
				w.note(p, "Launch", Result{}, w.drv.Launch(p, LaunchParams{Kernel: "spin", Dur: 10 * vclock.Millisecond}, s))
				w.note(p, "StreamSynchronize", Result{}, w.drv.StreamSynchronize(p, s))
			})
		}},
		{call: initCall("late", 0), before: rank1("late", 20*vclock.Millisecond)},
		{call: initCall("err", 0), before: fault("err", nccl.FaultError)},
		{call: initCall("range", 5)},
		{call: initCall("hang", 0), before: fault("hang", nccl.FaultHang)}, // never returns
		{call: Call{Op: OpEventCreate}},
	}
}

// runScript runs the script from one process: a coroutine calling Do, or a
// callback process stepping each call as a device proxy handler does —
// the call latency by Driver.Latency, Start, then AwaitNext and Resume
// while it waits. It
// returns the log, the unfiltered trace text and the kernel counters.
func runScript(t *testing.T, stepped bool, cp Params, np nccl.Params) string {
	t.Helper()
	env := vclock.NewEnv(1)
	rec := trace.New()
	trace.Attach(env, rec)
	w := &stepWorld{env: env, engine: nccl.NewEngine(env, np)}
	kernels := Registry{
		"spin": func(KernelArgs) error { return nil },
		"fail": func(KernelArgs) error { return errors.New("kernel failed") },
	}
	for i, drv := range []**Driver{&w.drv, &w.peer} {
		var err error
		if *drv, err = NewDriver(gpu.NewDevice(env, 0, i, 1<<34), w.engine, kernels, cp); err != nil {
			t.Fatal(err)
		}
	}
	script := resumableScript()
	if !stepped {
		env.Go("caller", func(p *vclock.Proc) {
			for _, sc := range script {
				if sc.before != nil {
					sc.before(w)
				}
				r, err := w.drv.Do(p, sc.call)
				w.note(p, sc.call.Op.String(), r, err)
			}
		})
	} else {
		var (
			i  int
			at int // 0: the call is made, 1: its latency is over, 2: a wait is over, 3: it may wait
			k  Pending
		)
		env.GoFunc("caller", func(p *vclock.Proc) {
			for i < len(script) {
				sc := &script[i]
				switch at {
				case 0:
					if sc.before != nil {
						sc.before(w)
					}
					at = 1
					if lat := w.drv.Latency(p, sc.call.Op); lat > 0 {
						p.SleepNext(lat)
						return
					}
				case 1:
					w.drv.Start(p, &sc.call, &k)
					at = 3
				case 2:
					k.Resume(p)
					at = 3
				case 3:
					if u, ok := k.Waits(); ok {
						if at = 2; p.AwaitNext(u) {
							return
						}
						continue
					}
					r, err := k.Result()
					w.note(p, sc.call.Op.String(), r, err)
					i, at = i+1, 0
				}
			}
		})
	}
	if err := env.RunUntil(vclock.Hour); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := trace.WriteText(&text, rec); err != nil {
		t.Fatal(err)
	}
	s := env.Stats()
	return fmt.Sprintf("%s-- trace\n%s-- now=%v dispatches=%d timer_fires=%d triggers=%d spawns=%d\n",
		w.log.String(), text.String(), env.Now(), s.Dispatches, s.TimerFires, s.Triggers, s.Spawns)
}

// TestResumableCallMatchesDo is the differential test of the resumable
// driver call: one script of calls, made once by a coroutine through
// Driver.Do and once by a callback process stepping Start and Resume, gives
// the same results and errors, the same trace (sched lines included) and
// the same kernel counters. It runs under the default latencies and under
// zero ones, where every sleep of a call is a zero-length one: a yield for
// the coroutine, a re-queue for the callback.
func TestResumableCallMatchesDo(t *testing.T) {
	zero := nccl.DefaultParams()
	zero.CommInitBase, zero.CommInitPerRank = 0, 0
	for _, tc := range []struct {
		name string
		cp   Params
		np   nccl.Params
	}{
		{"default", DefaultParams(), nccl.DefaultParams()},
		{"zero latencies", Params{H2DBandwidth: 25e9, D2HBandwidth: 25e9}, zero},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runScript(t, false, tc.cp, tc.np)
			// The script does what its comments say.
			for _, line := range []string{
				"caller MemcpyD2H -> {Handle:0 Data:[1 2] Bool:false U64:0} <nil>",
				"caller StreamSynchronize -> {Handle:0 Data:[] Bool:false U64:0} kernel failed",
				"creator StreamCreate -> {Handle:3 ",
				"caller CommInit -> {Handle:1 ",
				"caller CommInit -> {Handle:0 Data:[] Bool:false U64:0} " + nccl.ErrNetwork.Error(),
				"caller CommInit -> {Handle:0 Data:[] Bool:false U64:0} " + nccl.ErrInvalidRank.Error(),
				"i cuda  n0.g0  async-err err=kernel failed",
				"i nccl  hang   init-fault",
			} {
				if !strings.Contains(want, line) {
					t.Errorf("the script's coroutine run has no %q:\n%s", line, want)
				}
			}
			if strings.Contains(want, "EventCreate") {
				t.Errorf("the call after the hung CommInit ran:\n%s", want)
			}
			// DeviceSynchronize returns when the stream made during it drains.
			if a, b := at(want, "creator StreamSynchronize"), at(want, "caller DeviceSynchronize"); a < 0 || a != b {
				t.Errorf("DeviceSynchronize returned at %d, the stream made during it drained at %d:\n%s", b, a, want)
			}
			if got := runScript(t, true, tc.cp, tc.np); got != want {
				t.Errorf("stepped:\n%s\nthrough Do:\n%s", got, want)
			}
		})
	}
}

// at returns the time of the first log line naming what, or -1.
func at(log, what string) int64 {
	for _, line := range strings.Split(log, "\n") {
		var ns int64
		if strings.Contains(line, " "+what+" ") {
			if _, err := fmt.Sscan(line, &ns); err == nil {
				return ns
			}
		}
	}
	return -1
}
