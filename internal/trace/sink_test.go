package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// captureSink copies every event it sees (the pointer is only valid for
// the duration of the call).
type captureSink struct {
	evs []Ev
}

func (c *captureSink) Event(ev *Ev) { c.evs = append(c.evs, *ev) }

func TestSinkSeesEveryEventInOrder(t *testing.T) {
	r := New()
	sink := &captureSink{}
	r.SetSink(sink)
	r.BeginRun("x")
	sp := r.Begin(1, "ckpt", Rank(0), "save", "iter", 3)
	r.Instant(2, "fail", LaneSim, "detected")
	sp.End(4, "ok", true)
	r.BeginRun("y")
	r.Begin(1, "train", Rank(1), "iter") // left open

	if !reflect.DeepEqual(sink.evs, r.Events()) {
		t.Fatalf("sink stream diverges from log:\nsink: %+v\nlog:  %+v", sink.evs, r.Events())
	}
	r.SetSink(nil)
	r.Instant(9, "c", LaneSim, "after-detach")
	if len(sink.evs) == r.Len() {
		t.Fatal("detached sink still receiving events")
	}
}

func TestSinkSeesMergedEventsRenumbered(t *testing.T) {
	dst := New()
	dst.Instant(1, "c", LaneSim, "pre")
	sink := &captureSink{}
	dst.SetSink(sink)

	src := New()
	src.BeginRun("private")
	s := src.Begin(1, "c", LaneSim, "work")
	s.End(2)
	src.Begin(3, "c", LaneSim, "open")
	dst.Merge(src)

	tail := dst.Events()[1:] // everything after the pre-sink instant
	if !reflect.DeepEqual(sink.evs, tail) {
		t.Fatalf("sink did not see renumbered merge tail:\nsink: %+v\ntail: %+v", sink.evs, tail)
	}
	for _, ev := range sink.evs {
		if ev.Run != 2 {
			t.Fatalf("merged event not renumbered to run 2: %+v", ev)
		}
	}
}

func TestRetainOffStreamsWithoutLog(t *testing.T) {
	r := New()
	sink := &captureSink{}
	r.SetSink(sink)
	r.SetRetain(false)

	r.BeginRun("serve")
	sp := r.Begin(1, "train", Rank(0), "iter")
	sp.End(2)
	r.BeginRun("serve-2") // run numbering must advance despite the empty log
	r.Instant(1, "c", LaneSim, "x")

	if r.Len() != 0 {
		t.Fatalf("retain-off recorder kept %d events", r.Len())
	}
	if len(sink.evs) != 5 {
		t.Fatalf("sink saw %d events, want 5", len(sink.evs))
	}
	last := sink.evs[len(sink.evs)-1]
	if last.Run != 2 {
		t.Fatalf("run numbering broke without a log: %+v", last)
	}
	if end := sink.evs[2]; end.Ph != 'E' || end.Ref != sink.evs[1].Seq {
		t.Fatalf("span pairing broke without a log: %+v vs begin %+v", end, sink.evs[1])
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, r); err != nil || buf.Len() != 0 {
		t.Fatalf("retain-off export should be empty, got %q err %v", buf.String(), err)
	}
}

func TestSinkAttachDoesNotChangeLog(t *testing.T) {
	build := func(s EventSink) *Recorder {
		r := New()
		r.SetSink(s)
		r.BeginRun("x")
		sp := r.Begin(1, "c", LaneSim, "work", "k", "v")
		r.Instant(2, "c", Rank(0), "tick")
		sp.End(3)
		return r
	}
	plain := build(nil)
	tapped := build(&captureSink{})
	if !reflect.DeepEqual(plain.Events(), tapped.Events()) {
		t.Fatal("attaching a sink changed the recorded log")
	}
}
