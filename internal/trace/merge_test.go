package trace

import (
	"bytes"
	"testing"
)

// TestMergeRenumbersOpenSpans pins the in-progress-span case of Merge's
// seq renumbering: a parallel sweep may splice in a recorder whose runs
// were cut off at a horizon with spans still open. Open begins (Ref=0 on
// their eventual end) must stay open, closed src spans must keep pairing
// after the offset shift, and span handles into the destination recorder
// must still pair after a merge grew the log underneath them.
//
// This caught a real bug: Span.End stamped the recorder's *current* run
// counter, so a destination span ended after Merge advanced the counter
// was mis-attributed to the last spliced run.
func TestMergeRenumbersOpenSpans(t *testing.T) {
	dst := New()
	dst.BeginRun("dst")
	dst.Begin(1, "c", LaneSim, "closed-dst").End(2)
	openDst := dst.Begin(3, "c", LaneSim, "open-dst")

	src := New()
	src.BeginRun("src-a")
	sClosed := src.Begin(1, "c", LaneSim, "closed-src", "k", 1)
	src.Begin(2, "c", Rank(0), "open-src") // cut off: never ended
	sClosed.End(4, "ok", true)
	src.BeginRun("src-b")
	src.Begin(1, "c", LaneSim, "closed-src2").End(2)
	src.Begin(3, "c", Rank(1), "open-src2") // open in a later run

	dst.Merge(src)
	openDst.End(9) // dst handle must still resolve after the splice

	evs := dst.Events()
	seen := make(map[uint64]Ev, len(evs))
	for i, ev := range evs {
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("seq not strictly increasing at %d: %d then %d", i, evs[i-1].Seq, ev.Seq)
		}
		if ev.Ph == 'B' || ev.Ph == 'i' {
			seen[ev.Seq] = ev
		}
		if ev.Ph == 'E' {
			b, ok := seen[ev.Ref]
			if !ok {
				t.Fatalf("end %s/%s Ref=%d resolves to nothing", ev.Cat, ev.Name, ev.Ref)
			}
			if b.Ph != 'B' || b.Cat != ev.Cat || b.Lane != ev.Lane || b.Name != ev.Name || b.Run != ev.Run {
				t.Fatalf("end %s/%s Ref=%d resolves to mismatched begin %+v", ev.Cat, ev.Name, ev.Ref, b)
			}
		}
	}

	q := NewQuery(dst)
	type want struct {
		name string
		open bool
		run  int
		dur  int64
	}
	for _, w := range []want{
		{"closed-dst", false, 1, 1},
		{"open-dst", false, 1, 6},
		{"closed-src", false, 2, 3},
		{"open-src", true, 2, 0},
		{"closed-src2", false, 3, 1},
		{"open-src2", true, 3, 0},
	} {
		spans := q.Spans("c", w.name)
		if len(spans) != 1 {
			t.Fatalf("%s: %d spans", w.name, len(spans))
		}
		s := spans[0]
		if s.Open != w.open || s.Run != w.run || int64(s.Dur()) != w.dur {
			t.Fatalf("%s: got open=%v run=%d dur=%d, want %+v", w.name, s.Open, s.Run, int64(s.Dur()), w)
		}
	}
	if got := q.Spans("c", "closed-src")[0].Args; got["k"] != "1" || got["ok"] != "true" {
		t.Fatalf("closed-src args lost in merge: %v", got)
	}
}

// TestMergeWithOpenSpansMatchesSerial is the strongest form: performing
// the same operations serially into one recorder must produce a log
// byte-identical to recording them into two recorders and merging —
// including runs that end with spans still open.
func TestMergeWithOpenSpansMatchesSerial(t *testing.T) {
	first := func(r *Recorder) Span {
		r.BeginRun("a")
		r.Begin(1, "c", LaneSim, "done").End(2)
		return r.Begin(3, "c", LaneSim, "hang") // left open
	}
	second := func(r *Recorder) Span {
		r.BeginRun("b")
		s := r.Begin(1, "c", Rank(0), "slow")
		r.Instant(2, "fail", LaneSim, "detected")
		r.Begin(4, "c", Rank(1), "stuck") // left open
		return s
	}

	serial := New()
	first(serial)
	s := second(serial)
	s.End(9)

	merged := New()
	first(merged)
	priv := New()
	s2 := second(priv)
	s2.End(9)
	merged.Merge(priv)

	var a, b bytes.Buffer
	if err := WriteText(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&b, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merge with open spans diverged from serial:\nserial:\n%s\nmerged:\n%s", a.String(), b.String())
	}
	if serial.seq != merged.seq || serial.run != merged.run {
		t.Fatalf("counters diverged: serial seq=%d run=%d, merged seq=%d run=%d",
			serial.seq, serial.run, merged.seq, merged.run)
	}
}
