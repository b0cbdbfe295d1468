package gpu

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"jitckpt/internal/vclock"
)

// funcOp returns an op that sleeps dur then applies fn to the device. fn
// runs at op completion time, which is where kernels mutate buffer contents.
func funcOp(name string, dur vclock.Time, fn func(dev *Device) error) *Op {
	return &Op{Name: name, Dur: dur, Exec: fn}
}

func newTestDevice(t *testing.T) (*vclock.Env, *Device) {
	t.Helper()
	env := vclock.NewEnv(1)
	return env, NewDevice(env, 0, 0, 1<<30)
}

func TestAllocFreeAccounting(t *testing.T) {
	_, d := newTestDevice(t)
	b, err := d.Alloc(1<<20, 16, "weights")
	if err != nil {
		t.Fatal(err)
	}
	if d.memUsed != 1<<20 {
		t.Fatalf("MemUsed = %d, want 1MiB", d.memUsed)
	}
	if len(b.Data) != 16 {
		t.Fatalf("Data len = %d, want 16", len(b.Data))
	}
	if err := d.Free(b.ID); err != nil {
		t.Fatal(err)
	}
	if d.memUsed != 0 {
		t.Fatalf("MemUsed after free = %d", d.memUsed)
	}
	if err := d.Free(b.ID); !errors.Is(err, ErrNoSuchBuf) {
		t.Fatalf("double free err = %v", err)
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	env := vclock.NewEnv(1)
	d := NewDevice(env, 0, 0, 100)
	if _, err := d.Alloc(101, 0, "big"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
}

func TestAllocTagSequence(t *testing.T) {
	_, d := newTestDevice(t)
	a, _ := d.Alloc(8, 1, "layer1.w")
	b, _ := d.Alloc(8, 1, "layer1.w")
	c, _ := d.Alloc(8, 1, "layer2.w")
	if a.Seq != 0 || b.Seq != 1 || c.Seq != 0 {
		t.Fatalf("seqs = %d,%d,%d want 0,1,0", a.Seq, b.Seq, c.Seq)
	}
}

func TestStreamExecutesInOrder(t *testing.T) {
	env, d := newTestDevice(t)
	s, err := d.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	var times []vclock.Time
	env.Go("issuer", func(p *vclock.Proc) {
		// Longer op first: in-order execution means the short op still
		// finishes second.
		e1 := s.Enqueue(funcOp("long", vclock.Seconds(2), func(*Device) error {
			order = append(order, "long")
			return nil
		}))
		e2 := s.Enqueue(funcOp("short", vclock.Millisecond, func(*Device) error {
			order = append(order, "short")
			return nil
		}))
		p.Wait(e1)
		times = append(times, p.Now())
		p.Wait(e2)
		times = append(times, p.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "long" || order[1] != "short" {
		t.Fatalf("order = %v", order)
	}
	if times[0] != vclock.Seconds(2) || times[1] != vclock.Seconds(2)+vclock.Millisecond {
		t.Fatalf("completion times = %v", times)
	}
}

func TestParallelStreamsOverlap(t *testing.T) {
	env, d := newTestDevice(t)
	s1, _ := d.NewStream()
	s2, _ := d.NewStream()
	var finished vclock.Time
	env.Go("issuer", func(p *vclock.Proc) {
		e1 := s1.Enqueue(&Op{Name: "compute", Dur: vclock.Seconds(3)})
		e2 := s2.Enqueue(&Op{Name: "comm", Dur: vclock.Seconds(3)})
		p.Wait(e1)
		p.Wait(e2)
		finished = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != vclock.Seconds(3) {
		t.Fatalf("finished at %v, want 3s (parallel), not 6s (serial)", finished)
	}
}

func TestDrainEvent(t *testing.T) {
	env, d := newTestDevice(t)
	s, _ := d.NewStream()
	var syncAt vclock.Time
	env.Go("issuer", func(p *vclock.Proc) {
		s.Enqueue(&Op{Name: "a", Dur: vclock.Second})
		s.Enqueue(&Op{Name: "b", Dur: vclock.Second})
		p.Wait(s.DrainEvent())
		syncAt = p.Now()
		// Idle stream: drain returns immediately.
		p.Wait(s.DrainEvent())
		if p.Now() != syncAt {
			t.Error("drain on idle stream blocked")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if syncAt != vclock.Seconds(2) {
		t.Fatalf("drained at %v, want 2s", syncAt)
	}
}

func TestStickyErrorFailsQueuedOps(t *testing.T) {
	env, d := newTestDevice(t)
	s, _ := d.NewStream()
	inflight := &Op{Name: "inflight", Dur: vclock.Second}
	queued := &Op{Name: "queued", Dur: vclock.Second}
	var inflightErr, queuedErr error
	var queuedDoneAt vclock.Time
	env.Go("issuer", func(p *vclock.Proc) {
		ea := s.Enqueue(inflight)
		eb := s.Enqueue(queued)
		p.Sleep(vclock.Millisecond)
		d.InjectSticky() // strikes while "inflight" is executing
		p.Wait(ea)
		inflightErr = inflight.Err
		p.Wait(eb)
		queuedErr = queued.Err
		queuedDoneAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(inflightErr, ErrSticky) {
		t.Fatalf("in-flight op err = %v, want sticky", inflightErr)
	}
	if !errors.Is(queuedErr, ErrSticky) {
		t.Fatalf("queued op err = %v, want sticky", queuedErr)
	}
	// The queued op fails fast: it must not have slept its full second.
	if queuedDoneAt != vclock.Second {
		t.Fatalf("queued op completed at %v, want 1s (fail-fast after in-flight)", queuedDoneAt)
	}
	// API calls also fail until reset.
	if _, err := d.Alloc(1, 0, "x"); !errors.Is(err, ErrSticky) {
		t.Fatalf("Alloc under sticky err = %v", err)
	}
}

func TestHardFailureHangsOps(t *testing.T) {
	env, d := newTestDevice(t)
	s, _ := d.NewStream()
	completed := false
	detected := false
	env.Go("issuer", func(p *vclock.Proc) {
		done := s.Enqueue(&Op{Name: "kernel", Dur: vclock.Seconds(10)})
		if p.WaitTimeout(done, vclock.Seconds(30)) {
			completed = true
		} else {
			detected = true
		}
	})
	env.Go("injector", func(p *vclock.Proc) {
		p.Sleep(vclock.Second)
		d.InjectHard()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if completed || !detected {
		t.Fatalf("completed=%v detected=%v; hard failure must hang ops", completed, detected)
	}
	if _, err := d.Alloc(1, 0, "x"); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("Alloc on dead device err = %v", err)
	}
	if err := d.Reset(); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("Reset on dead device err = %v", err)
	}
}

func TestResetClearsStickyAndKeepsBuffers(t *testing.T) {
	env, d := newTestDevice(t)
	b, _ := d.Alloc(1<<10, 4, "params")
	b.Data[0] = 42
	env.Go("w", func(p *vclock.Proc) {
		d.InjectSticky()
		if err := d.Reset(); err != nil {
			t.Errorf("Reset: %v", err)
		}
		if d.Health() != Healthy {
			t.Errorf("health after reset = %v", d.Health())
		}
		got, err := d.Buf(b.ID)
		if err != nil || got.Data[0] != 42 {
			t.Errorf("buffer lost across reset: %v %v", got, err)
		}
		// New work executes after reset on a fresh stream.
		s, err := d.NewStream()
		if err != nil {
			t.Fatalf("NewStream after reset: %v", err)
		}
		op := &Op{Name: "post-reset", Dur: vclock.Second}
		p.Wait(s.Enqueue(op))
		if op.Err != nil {
			t.Errorf("post-reset op err = %v", op.Err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyStreamDropsWork(t *testing.T) {
	env, d := newTestDevice(t)
	s, _ := d.NewStream()
	ran := false
	env.Go("w", func(p *vclock.Proc) {
		s.Enqueue(funcOp("never", vclock.Seconds(10), func(*Device) error {
			ran = true
			return nil
		}))
		p.Sleep(vclock.Second)
		if err := d.DestroyStream(s.ID); err != nil {
			t.Errorf("DestroyStream: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("op completed on destroyed stream")
	}
}

func TestClusterTopology(t *testing.T) {
	env := vclock.NewEnv(1)
	c := NewCluster(env, 2, 8, 32<<30)
	if len(c.Nodes) != 2 || len(c.Nodes[0].Devices) != 8 || len(c.Nodes[1].Devices) != 8 {
		t.Fatalf("cluster shape = %d nodes, want 2 × 8 devices", len(c.Nodes))
	}
	d := c.Nodes[1].Devices[3]
	if d.NodeID != 1 || d.Index != 3 {
		t.Fatalf("Nodes[1].Devices[3] = %s", d.Name())
	}
}

func TestTransferTime(t *testing.T) {
	// 32 GB over PCIe gen4 at 32 GB/s ≈ 1 second.
	got := TransferTime(32<<30, 32*float64(1<<30))
	if got != vclock.Second {
		t.Fatalf("TransferTime = %v, want 1s", got)
	}
	if TransferTime(0, 1e9) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if TransferTime(1, 1e12) != vclock.Microsecond {
		t.Fatal("non-empty transfer must take at least 1µs")
	}
}

// Property: memory accounting never goes negative and Free always restores
// exactly what Alloc took, under arbitrary alloc/free interleavings.
func TestMemAccountingProperty(t *testing.T) {
	f := func(sizes []uint16, freeMask []bool) bool {
		env := vclock.NewEnv(1)
		d := NewDevice(env, 0, 0, 1<<40)
		var live []int
		var want int64
		for i, sz := range sizes {
			b, err := d.Alloc(int64(sz), 0, fmt.Sprintf("t%d", i%3))
			if err != nil {
				return false
			}
			live = append(live, b.ID)
			want += int64(sz)
			if i < len(freeMask) && freeMask[i] && len(live) > 0 {
				id := live[0]
				live = live[1:]
				buf, _ := d.Buf(id)
				want -= buf.ModelBytes
				if err := d.Free(id); err != nil {
					return false
				}
			}
			if d.memUsed != want || want < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any batch of op durations, a stream completes them in FIFO
// order at the prefix-sum times.
func TestStreamFIFOTimingProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 32 {
			durs = durs[:32]
		}
		env := vclock.NewEnv(1)
		d := NewDevice(env, 0, 0, 1<<30)
		s, _ := d.NewStream()
		times := make([]vclock.Time, len(durs))
		env.Go("issuer", func(p *vclock.Proc) {
			events := make([]*vclock.Event, len(durs))
			for i, dur := range durs {
				events[i] = s.Enqueue(&Op{Name: "op", Dur: vclock.Time(dur) * vclock.Millisecond})
			}
			for i, ev := range events {
				p.Wait(ev)
				times[i] = p.Now()
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		var sum vclock.Time
		for i, dur := range durs {
			sum += vclock.Time(dur) * vclock.Millisecond
			if times[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamOpThroughput(b *testing.B) {
	env := vclock.NewEnv(1)
	d := NewDevice(env, 0, 0, 1<<30)
	s, _ := d.NewStream()
	env.Go("issuer", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			ev := s.Enqueue(&Op{Name: "op", Dur: vclock.Microsecond})
			p.Wait(ev)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStreamOps is the fleet-shaped stream executor: 2000 streams on
// 2000 devices, each fed by a process of its own that pushes Dur-only ops
// and syncs every 16, so an op's start and its end each land on a stream
// that last ran 2000 ops ago. One op is one b.N. Creating the devices,
// streams and feeders and killing the streams at the end are outside the
// timer.
func BenchmarkStreamOps(b *testing.B) {
	const n, batch = 2000, 16
	b.ReportAllocs()
	env := vclock.NewEnv(1)
	start := env.NewEvent("start")
	left, running := b.N, n
	for i := 0; i < n; i++ {
		s, err := NewDevice(env, i/8, i%8, 1<<30).NewStream()
		if err != nil {
			b.Fatal(err)
		}
		ops := make([]Op, batch)
		env.Go("feeder", func(p *vclock.Proc) {
			p.Wait(start)
			for left > 0 {
				for k := 0; k < batch && left > 0; k++ {
					left--
					ops[k] = Op{Dur: vclock.Microsecond}
					s.EnqueueAsync(&ops[k])
				}
				p.Wait(s.DrainEvent())
			}
			if running--; running == 0 {
				b.StopTimer()
			}
		})
	}
	env.Go("starter", func(p *vclock.Proc) { // runs once every stream and feeder is parked
		b.ResetTimer()
		start.Trigger()
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
