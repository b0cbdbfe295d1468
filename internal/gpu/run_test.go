package gpu

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jitckpt/internal/trace"
	"jitckpt/internal/vclock"
)

// Tests of the observer contract of a run: a stream sleeps once through the
// fire-and-forget ops at the head of its queue, and whatever reads the
// device from outside sees exactly the ops that completed before now.

// dispatchCounts is a vclock.DispatchRecorder keeping each retired
// process's callback dispatches by name.
type dispatchCounts map[string]uint64

func (c dispatchCounts) ProcDispatches(_ int, name string, callback, _ uint64) {
	c[name] += callback
}

// runRig is one device with one stream, a trace recorder, and n
// fire-and-forget ops of 1s each, named op0..op<n-1>, whose Exec appends
// the op's index to applied.
type runRig struct {
	env     *vclock.Env
	d       *Device
	s       *Stream
	rec     *trace.Recorder
	ops     []*Op
	applied []int
}

func newRunRig(t *testing.T, n int, dur vclock.Time) *runRig {
	t.Helper()
	env, d := newTestDevice(t)
	r := &runRig{env: env, d: d, rec: trace.New()}
	trace.Attach(env, r.rec)
	r.s, _ = d.NewStream()
	for i := 0; i < n; i++ {
		i := i
		r.ops = append(r.ops, &Op{Name: fmt.Sprint("op", i), Dur: dur,
			Exec: func(*Device) error { r.applied = append(r.applied, i); return nil }})
	}
	return r
}

// enqueue puts every op on the stream.
func (r *runRig) enqueue() {
	for _, op := range r.ops {
		r.s.EnqueueAsync(op)
	}
}

// gpuLines renders the trace's gpu events as "<ph> <name> <t>", in record
// order.
func (r *runRig) gpuLines() string {
	var b strings.Builder
	for _, ev := range r.rec.Events() {
		if ev.Cat == "gpu" && ev.Lane == r.d.Lane() {
			name := ev.Name
			for _, a := range ev.Args {
				name += " " + a.K + "=" + a.V
			}
			fmt.Fprintf(&b, "%c %s %v\n", ev.Ph, name, ev.T)
		}
	}
	return b.String()
}

func (r *runRig) run(t *testing.T) {
	t.Helper()
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCostsOneDispatchAndOneFire: however many launches a run holds,
// its stream is dispatched once for them (the wake) and the kernel fires
// one timer, and each op still ends at its own time.
func TestRunCostsOneDispatchAndOneFire(t *testing.T) {
	for _, n := range []int{1, 5, 64} {
		r := newRunRig(t, n, vclock.Millisecond)
		counts := dispatchCounts{}
		r.env.SetRecorder(counts) // the trace is not needed here
		drained := vclock.Time(-1)
		r.env.Go("feeder", func(p *vclock.Proc) {
			r.enqueue()
			p.Wait(r.s.DrainEvent())
			drained = p.Now()
		})
		r.run(t)
		// The stream: parks on the empty queue, takes the run, wakes at its
		// end, and is retired by shutdown.
		st := r.env.Stats()
		if got := counts[r.s.proc.Name()]; got != 4 || st.TimerFires != 1 || drained != vclock.Time(n)*vclock.Millisecond || len(r.applied) != n {
			t.Errorf("%d launches: stream dispatched %d times, %d timer fires, drained at %v, %d applied; want 4, 1, %v, %d",
				n, got, st.TimerFires, drained, len(r.applied), vclock.Time(n)*vclock.Millisecond, n)
		}
	}
}

// TestRunSpansAreComputed: each op's span begins where the op before it
// ended and ends at its own completion, though all are recorded at the
// run's wake.
func TestRunSpansAreComputed(t *testing.T) {
	r := newRunRig(t, 3, vclock.Second)
	r.env.Go("feeder", func(p *vclock.Proc) { r.enqueue() })
	r.run(t)
	want := "B op0 0.000s\nE op0 1.000s\nB op1 1.000s\nE op1 2.000s\nB op2 2.000s\nE op2 3.000s\n"
	if got := r.gpuLines(); got != want {
		t.Errorf("gpu trace:\n%s\nwant:\n%s", got, want)
	}
}

// TestStickyMidRun: the ops that completed before the fault apply, the op
// in flight applies and ends with ErrSticky at its own end, the ops behind
// it fail at that same instant, and the drain triggers there, not at the
// run's old end.
func TestStickyMidRun(t *testing.T) {
	r := newRunRig(t, 4, vclock.Second)
	drained := vclock.Time(-1)
	r.env.Go("feeder", func(p *vclock.Proc) {
		r.enqueue()
		p.Wait(r.s.DrainEvent())
		drained = p.Now()
	})
	r.env.Go("injector", func(p *vclock.Proc) {
		p.Sleep(vclock.Seconds(1.5))
		r.d.InjectSticky()
	})
	r.run(t)
	if drained != 2*vclock.Second || r.env.Now() != 2*vclock.Second {
		t.Errorf("drained at %v, run ended at %v; want 2s, 2s", drained, r.env.Now())
	}
	if fmt.Sprint(r.applied) != "[0 1]" {
		t.Errorf("applied %v, want [0 1]", r.applied)
	}
	for i, want := range []error{nil, ErrSticky, ErrSticky, ErrSticky} {
		if r.ops[i].Err != want {
			t.Errorf("op%d: err %v, want %v", i, r.ops[i].Err, want)
		}
	}
	want := "B op0 0.000s\nE op0 1.000s\ni inject-sticky 1.500s\nB op1 1.000s\nE op1 2.000s\n" +
		"i sticky-err op=op2 2.000s\ni sticky-err op=op3 2.000s\n"
	if got := r.gpuLines(); got != want {
		t.Errorf("gpu trace:\n%s\nwant:\n%s", got, want)
	}
	if !errors.Is(r.s.AsyncErr(), ErrSticky) {
		t.Errorf("stream error %v, want sticky", r.s.AsyncErr())
	}
}

// TestHardMidRun: the ops that completed before the fault apply, the rest
// never complete, the drain never triggers, and the op in flight keeps the
// begin of its span.
func TestHardMidRun(t *testing.T) {
	r := newRunRig(t, 4, vclock.Second)
	drained := false
	r.env.Go("feeder", func(p *vclock.Proc) {
		r.enqueue()
		drained = p.WaitTimeout(r.s.DrainEvent(), vclock.Minute)
	})
	r.env.Go("injector", func(p *vclock.Proc) {
		p.Sleep(vclock.Seconds(1.5))
		r.d.InjectHard()
		r.d.Repair() // settles nothing: the killed stream's run is gone
	})
	r.run(t)
	if drained || fmt.Sprint(r.applied) != "[0]" || r.s.pending != 3 {
		t.Errorf("drained %v, applied %v, pending %d; want false, [0], 3", drained, r.applied, r.s.pending)
	}
	for i, op := range r.ops {
		if op.Err != nil {
			t.Errorf("op%d: err %v, want none", i, op.Err)
		}
	}
	want := "B op0 0.000s\nE op0 1.000s\nB op1 1.000s\ni inject-hard 1.500s\ni repair 1.500s\n"
	if got := r.gpuLines(); got != want {
		t.Errorf("gpu trace:\n%s\nwant:\n%s", got, want)
	}
}

// TestObserversSettle: PendingOps and a buffer read after Settle, mid-run,
// see exactly the ops that completed before now. An op completing at this
// very instant is its stream's to apply.
func TestObserversSettle(t *testing.T) {
	r := newRunRig(t, 4, vclock.Second)
	b, _ := r.d.Alloc(4, 1, "x")
	for _, op := range r.ops {
		exec := op.Exec
		op.Exec = func(d *Device) error { b.Data[0]++; return exec(d) }
	}
	type seen struct {
		pending int
		data    float32
	}
	var got []seen
	r.env.Go("feeder", func(p *vclock.Proc) {
		r.enqueue()
		for _, at := range []vclock.Time{vclock.Seconds(0.5), vclock.Seconds(1.5), vclock.Seconds(2), vclock.Seconds(3.5)} {
			p.Sleep(at - p.Now())
			n := r.d.PendingOps()
			got = append(got, seen{n, b.Data[0]})
		}
		p.Sleep(vclock.Seconds(0.25))
		r.d.Settle()
		got = append(got, seen{r.s.pending, b.Data[0]})
	})
	r.run(t)
	if want := "[{4 0} {3 1} {3 1} {1 3} {1 3}]"; fmt.Sprint(got) != want {
		t.Errorf("observed (pending, applied) %v, want %v", got, want)
	}
}

// TestInjectionsSettleFirst: a fault's trace instant comes after the ends
// of the ops that completed before it, in record order as in time.
func TestInjectionsSettleFirst(t *testing.T) {
	r := newRunRig(t, 3, vclock.Second)
	r.env.Go("feeder", func(p *vclock.Proc) {
		r.enqueue()
		p.Sleep(vclock.Seconds(1.5))
		r.d.InjectDriverCorrupt()
	})
	r.run(t)
	want := "B op0 0.000s\nE op0 1.000s\ni inject-corrupt 1.500s\nB op1 1.000s\nE op1 2.000s\nB op2 2.000s\nE op2 3.000s\n"
	if got := r.gpuLines(); got != want || len(r.applied) != 3 {
		t.Errorf("applied %v, gpu trace:\n%s\nwant:\n%s", r.applied, got, want)
	}
}

// TestZeroDurationRun: a run of ops with no duration is one yield, applied
// in order at the instant it was taken.
func TestZeroDurationRun(t *testing.T) {
	r := newRunRig(t, 3, 0)
	counts := dispatchCounts{}
	r.env.SetRecorder(counts)
	drained := vclock.Time(-1)
	r.env.Go("feeder", func(p *vclock.Proc) {
		p.Sleep(vclock.Second)
		r.enqueue()
		p.Wait(r.s.DrainEvent())
		drained = p.Now()
	})
	r.run(t)
	if got := counts[r.s.proc.Name()]; got != 4 || drained != vclock.Second || fmt.Sprint(r.applied) != "[0 1 2]" {
		t.Errorf("stream dispatched %d times, drained at %v, applied %v; want 4, 1s, [0 1 2]", got, drained, r.applied)
	}
}

// TestResetAndDestroyMidRun: a reset or a stream's destruction mid-run
// applies what completed, records the begin of the op in flight and drops
// the rest; a later Settle finds nothing to apply.
func TestResetAndDestroyMidRun(t *testing.T) {
	for name, kill := range map[string]func(d *Device, s *Stream){
		"Reset":         func(d *Device, s *Stream) { _ = d.Reset() },
		"DestroyStream": func(d *Device, s *Stream) { _ = d.DestroyStream(s.ID) },
	} {
		r := newRunRig(t, 4, vclock.Second)
		r.env.Go("feeder", func(p *vclock.Proc) {
			r.enqueue()
			p.Sleep(vclock.Seconds(2.5))
			kill(r.d, r.s)
			p.Sleep(vclock.Second)
			r.s.settle(p.Now())
		})
		r.run(t)
		if fmt.Sprint(r.applied) != "[0 1]" || r.s.run != 0 || r.ops[2].Err != nil {
			t.Errorf("%s: applied %v, run %d, op2 err %v; want [0 1], 0, none", name, r.applied, r.s.run, r.ops[2].Err)
		}
		if got := r.gpuLines(); !strings.Contains(got, "E op1 2.000s\nB op2 2.000s\n") ||
			strings.Contains(got, "E op2") || strings.Contains(got, "op3") {
			t.Errorf("%s: gpu trace:\n%s", name, got)
		}
	}
}

// refStream is the per-op stream executor this package had before runs,
// kept as the reference: a coroutine that begins each op at the head of the
// queue, sleeps its Dur and applies it, one wait per op.
type refStream struct {
	q       *vclock.Queue[*Op]
	proc    *vclock.Proc
	sticky  *bool
	pending int
	drain   *vclock.Event
	log     []string
}

func newRefStream(env *vclock.Env, sticky *bool) *refStream {
	r := &refStream{q: vclock.NewQueue[*Op](env, "ref.q"), sticky: sticky}
	r.proc = env.Go("ref", func(p *vclock.Proc) {
		for {
			op := r.q.Pop(p)
			if *r.sticky {
				r.log = append(r.log, fmt.Sprintf("i sticky-err op=%s %v", op.Name, p.Now()))
				r.finish(op, ErrSticky)
				continue
			}
			r.log = append(r.log, fmt.Sprintf("B %s %v", op.Name, p.Now()))
			p.Sleep(op.Dur)
			err := op.Exec(nil)
			r.log = append(r.log, fmt.Sprintf("E %s %v", op.Name, p.Now()))
			if *r.sticky {
				err = ErrSticky
			}
			r.finish(op, err)
		}
	})
	return r
}

func (r *refStream) finish(op *Op, err error) {
	op.Err = err
	if op.Done != nil {
		op.Done.Trigger()
	}
	if r.pending--; r.pending == 0 && r.drain != nil {
		r.drain.Trigger()
	}
}

// executor is what the property test drives: the device's stream or the
// reference.
type executor interface {
	enqueue(op *Op, wait bool) *vclock.Event
	drainEvent() *vclock.Event
	observe() int // pending ops, after settling
	sticky()
	hard()
	trace() []string // the stream's gpu events, by op, in op order
}

type devExec struct {
	d   *Device
	s   *Stream
	rec *trace.Recorder
}

func (x *devExec) enqueue(op *Op, wait bool) *vclock.Event {
	if wait {
		return x.s.Enqueue(op)
	}
	x.s.EnqueueAsync(op)
	return nil
}
func (x *devExec) drainEvent() *vclock.Event { return x.s.DrainEvent() }
func (x *devExec) observe() int              { return x.d.PendingOps() }
func (x *devExec) sticky()                   { x.d.InjectSticky() }
func (x *devExec) hard()                     { x.d.InjectHard() }
func (x *devExec) trace() []string {
	var out []string
	for _, ev := range x.rec.Events() {
		if ev.Cat == "gpu" && ev.Ph != 'i' {
			out = append(out, fmt.Sprintf("%c %s %v", ev.Ph, ev.Name, ev.T))
		} else if ev.Name == "sticky-err" {
			out = append(out, fmt.Sprintf("i sticky-err op=%s %v", ev.Args[0].V, ev.T))
		}
	}
	return out
}

type refExec struct {
	env    *vclock.Env
	r      *refStream
	stuck  bool
	killed bool
}

func (x *refExec) enqueue(op *Op, wait bool) *vclock.Event {
	if wait {
		op.Done = x.env.NewEvent("op")
	}
	x.r.pending++
	x.r.q.Push(op)
	return op.Done
}
func (x *refExec) drainEvent() *vclock.Event {
	if x.r.pending == 0 {
		return x.env.DoneEvent()
	}
	if x.r.drain == nil || x.r.drain.Triggered() {
		x.r.drain = x.env.NewEvent("drain")
	}
	return x.r.drain
}
func (x *refExec) observe() int    { return x.r.pending }
func (x *refExec) sticky()         { x.stuck = true }
func (x *refExec) hard()           { x.r.proc.Kill() }
func (x *refExec) trace() []string { return x.r.log }

// playScript runs one seeded script against x: a feeder enqueues batches
// of ops (mostly fire-and-forget, some waited for) at whole milliseconds and
// sometimes waits for the stream to drain, an observer reads the pending
// count at half milliseconds, and an injector may strike, also at a half
// millisecond, so that nothing outside the stream coincides with an op's
// end. It returns what each side saw.
func playScript(seed int64, env *vclock.Env, x executor) string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	note := func(p *vclock.Proc, format string, a ...any) {
		out = append(out, fmt.Sprintf("%v ", p.Now())+fmt.Sprintf(format, a...))
	}
	type batch struct {
		at   vclock.Time
		durs []vclock.Time
		wait []bool
		sync bool
	}
	var batches []batch
	at := vclock.Time(0)
	for i := rng.Intn(6) + 1; i > 0; i-- {
		at += vclock.Time(rng.Intn(4)) * vclock.Millisecond
		b := batch{at: at, sync: rng.Intn(3) == 0}
		for k := rng.Intn(6) + 1; k > 0; k-- {
			b.durs = append(b.durs, vclock.Time(rng.Intn(3))*vclock.Millisecond)
			b.wait = append(b.wait, rng.Intn(6) == 0)
		}
		batches = append(batches, b)
	}
	var looks []vclock.Time
	for i := rng.Intn(5); i > 0; i-- {
		looks = append(looks, vclock.Time(rng.Intn(20))*vclock.Millisecond+vclock.Millisecond/2)
	}
	strike, kind := vclock.Time(rng.Intn(20))*vclock.Millisecond+vclock.Millisecond/2, rng.Intn(3)

	applied := 0
	env.Go("feeder", func(p *vclock.Proc) {
		n := 0
		for _, b := range batches {
			if b.at > p.Now() {
				p.Sleep(b.at - p.Now())
			}
			var last *vclock.Event
			for k, d := range b.durs {
				name := fmt.Sprint("op", n)
				n++
				op := &Op{Name: name, Dur: d, Exec: func(*Device) error { applied++; return nil }}
				if ev := x.enqueue(op, b.wait[k]); ev != nil {
					last = ev
				}
			}
			if b.sync {
				ok := p.WaitTimeout(x.drainEvent(), vclock.Second)
				note(p, "drain %v", ok)
			} else if last != nil {
				ok := p.WaitTimeout(last, vclock.Second)
				note(p, "waited %v", ok)
			}
		}
	})
	env.Go("observer", func(p *vclock.Proc) {
		for _, t := range looks {
			if t > p.Now() {
				p.Sleep(t - p.Now())
			}
			note(p, "pending %d applied %d", x.observe(), applied)
		}
	})
	env.Go("injector", func(p *vclock.Proc) {
		p.Sleep(strike)
		switch kind {
		case 1:
			x.sticky()
		case 2:
			x.hard()
		}
	})
	if err := env.Run(); err != nil {
		return err.Error()
	}
	// The stream's events, grouped by op in op order: what differs between
	// the two is only when they were recorded.
	byOp := map[string][]string{}
	var names []string
	for _, l := range x.trace() {
		f := strings.Fields(l)
		name := strings.TrimPrefix(f[1], "op=")
		if f[0] == "i" {
			name = strings.TrimPrefix(f[2], "op=")
		}
		if byOp[name] == nil {
			names = append(names, name)
		}
		byOp[name] = append(byOp[name], l)
	}
	for _, name := range names {
		out = append(out, byOp[name]...)
	}
	out = append(out, fmt.Sprint("applied ", applied, " end ", env.Now()))
	return strings.Join(out, "\n")
}

// TestRunMatchesPerOpReference: over seeded scripts of launches, waited
// ops, drains, observers and a sticky or hard fault, the batched stream
// and the per-op reference agree on every op's span, error and failure
// instant, on every observation, and on when each waiter returns.
func TestRunMatchesPerOpReference(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		env := vclock.NewEnv(1)
		d := NewDevice(env, 0, 0, 1<<30)
		rec := trace.New()
		trace.Attach(env, rec)
		s, _ := d.NewStream()
		got := playScript(seed, env, &devExec{d: d, s: s, rec: rec})

		renv := vclock.NewEnv(1)
		ref := &refExec{env: renv}
		ref.r = newRefStream(renv, &ref.stuck)
		want := playScript(seed, renv, ref)
		if got != want {
			t.Fatalf("seed %d: batched stream\n%s\n\nper-op reference\n%s", seed, got, want)
		}
	}
}
