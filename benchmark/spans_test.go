package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSpanNestingAndSelfTime(t *testing.T) {
	r := newSpanRecorder()
	r.nextPass()
	r.do("pass", func() {
		r.do("layer.A", func() { time.Sleep(2 * time.Millisecond) })
		r.do("layer.B", func() {
			r.do("layer.A", func() { time.Sleep(time.Millisecond) })
		})
	})
	r.nextPass()
	r.do("pass", func() {})

	if len(r.spans) != 5 || len(r.open) != 0 {
		t.Fatalf("spans=%d open=%d", len(r.spans), len(r.open))
	}
	wantParent := []int{-1, 0, 0, 2, -1}
	wantPass := []int{1, 1, 1, 1, 2}
	for i, s := range r.spans {
		if s.Parent != wantParent[i] || s.Pass != wantPass[i] {
			t.Errorf("span %d (%s): parent=%d pass=%d, want %d and %d", i, s.Name, s.Parent, s.Pass, wantParent[i], wantPass[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}

	// Self time: a span's duration minus what its direct children cover;
	// summed over everything it equals the roots' total duration.
	self := r.selfTimes()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	roots := (r.spans[0].End - r.spans[0].Start) + (r.spans[4].End - r.spans[4].Start)
	if sum != roots {
		t.Errorf("self times sum to %v, roots last %v", sum, roots)
	}
	if self["layer.A"] < 3*time.Millisecond {
		t.Errorf("layer.A self = %v, want both sleeps", self["layer.A"])
	}
	if self["layer.B"] > time.Millisecond {
		t.Errorf("layer.B self = %v, want next to nothing: its child covers it", self["layer.B"])
	}

	var buf bytes.Buffer
	if err := r.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 || doc.TraceEvents[3].Args["parent"] != 2 || doc.TraceEvents[3].Ph != "X" {
		t.Errorf("chrome export = %+v", doc.TraceEvents)
	}
}

// A nil tracer — the timed phase — runs the function and records nothing.
func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	ran := false
	tr.span("x", func() { ran = true })
	if !ran || tr.recorder() != nil {
		t.Error("nil tracer must run fn and attach no recorder")
	}
}
