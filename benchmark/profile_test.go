package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// protoWriter builds the hand-made profile the decoder is tested on.
type protoWriter struct{ bytes.Buffer }

func (w *protoWriter) varint(v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}

func (w *protoWriter) intField(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(v)
}

func (w *protoWriter) bytesField(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.Write(b)
}

func packed(vs ...uint64) []byte {
	var w protoWriter
	for _, v := range vs {
		w.varint(v)
	}
	return w.Bytes()
}

// buildProfile encodes stacks (function names, leaf first) with counts as a
// gzip-compressed profile.proto. Every function gets its own location,
// except that inlined[leaf] names a caller inlined into the leaf's
// location (two Line entries, innermost first). Odd samples use packed
// location ids, even ones the unpacked encoding.
func buildProfile(t *testing.T, stacks [][]string, counts []uint64, inlined map[string]string) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var funcs, locs []string
	id := func(fn string) uint64 {
		if i, ok := funcID[fn]; ok {
			return i
		}
		funcID[fn] = uint64(len(funcs) + 1)
		funcs = append(funcs, fn)
		locs = append(locs, fn)
		return funcID[fn]
	}

	var p protoWriter
	// sample_type: samples/count, cpu/nanoseconds.
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt protoWriter
		vt.intField(1, intern(st[0]))
		vt.intField(2, intern(st[1]))
		p.bytesField(1, vt.Bytes())
	}
	for i, stack := range stacks {
		var ids []uint64
		for _, fn := range stack {
			if inlined[stack[0]] == fn {
				continue // lives in the leaf's location
			}
			ids = append(ids, id(fn))
		}
		var s protoWriter
		if i%2 == 1 {
			s.bytesField(1, packed(ids...))
		} else {
			for _, l := range ids {
				s.intField(1, l)
			}
		}
		s.bytesField(2, packed(counts[i], counts[i]*10_000_000))
		p.bytesField(2, s.Bytes())
	}
	for _, caller := range inlined {
		id(caller) // a function record, but no location of its own
	}
	for _, fn := range locs {
		var l protoWriter
		l.intField(1, funcID[fn])
		l.intField(3, 0x400000+funcID[fn]) // address: skipped by the decoder
		var line protoWriter
		line.intField(1, funcID[fn])
		line.intField(2, 42)
		l.bytesField(4, line.Bytes())
		if caller, ok := inlined[fn]; ok {
			var outer protoWriter
			outer.intField(1, funcID[caller])
			l.bytesField(4, outer.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	for _, fn := range funcs {
		var f protoWriter
		f.intField(1, funcID[fn])
		f.intField(2, intern(fn))
		f.intField(4, intern("file.go"))
		p.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	p.intField(9, 1234) // time_nanos
	p.intField(12, 1e7) // period
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestParseAndAttributeHandBuiltProfile(t *testing.T) {
	stacks := [][]string{
		// 0: a channel handoff under vclock: layer vclock, group sched.
		{"runtime.chansend", "jitckpt/internal/vclock.(*Env).dispatch", "jitckpt/internal/vclock.(*Env).RunUntil", "jitckpt/internal/core.Run", "main.main"},
		// 1: scheduler on g0: no layer, group sched.
		{"runtime.futex", "runtime.notewakeup", "runtime.startm", "runtime.schedule", "runtime.park_m", "runtime.mcall"},
		// 2: FNV under checkpoint: layer checkpoint, group fnv.
		{"hash/fnv.(*sum64a).Write", "jitckpt/internal/checkpoint.hashBytes", "jitckpt/internal/checkpoint.WriteRank", "jitckpt/internal/core.(*harness).save"},
		// 3: malloc under gob under proxy: innermost group is malloc, layer proxy.
		{"runtime.nextFreeFast", "runtime.mallocgc", "encoding/gob.(*Encoder).Encode", "jitckpt/internal/proxy.(*Client).call"},
		// 4: memmove under gob under train's state codec (inlined frame): group gob, layer train.
		{"runtime.memmove", "encoding/gob.(*encBuffer).Write", "jitckpt/internal/train.(*ModelState).Encode"},
		// 5: tensor math folds into train; no group.
		{"jitckpt/internal/tensor.Vector.AXPY", "jitckpt/internal/train.Kernels.func3", "jitckpt/internal/cuda.(*Driver).Launch.func1"},
		// 6: background GC worker: no layer, group gc.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"},
		// 7: the benchmark's own frames only: unattributed.
		{"main.(*digestWriter).u64", "main.main", "runtime.main"},
		// 8: generic queue method and scheduler alias: layer vclock; replay → proxy.
		{"jitckpt/internal/vclock.(*Queue[go.shape.int]).Pop", "jitckpt/internal/replay.(*Log).Append"},
	}
	counts := []uint64{10, 20, 5, 4, 3, 8, 6, 2, 1}
	inlined := map[string]string{"runtime.memmove": "encoding/gob.(*encBuffer).Write"}
	samples, err := parseProfile(buildProfile(t, stacks, counts, inlined))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if s.count != int64(counts[i]) {
			t.Errorf("sample %d count = %d, want %d", i, s.count, counts[i])
		}
		if len(s.stack) != len(stacks[i]) {
			t.Fatalf("sample %d stack = %v, want %v", i, s.stack, stacks[i])
		}
		for j := range s.stack {
			if s.stack[j] != stacks[i][j] {
				t.Errorf("sample %d frame %d = %q, want %q", i, j, s.stack[j], stacks[i][j])
			}
		}
	}

	a := attribute(samples)
	if a.total != 59 {
		t.Fatalf("total = %d, want 59", a.total)
	}
	wantLayers := map[string]int64{"vclock": 11, "checkpoint": 5, "proxy": 4, "train": 11}
	for l, n := range wantLayers {
		if a.layers[l] != n {
			t.Errorf("layer %s = %d, want %d", l, a.layers[l], n)
		}
	}
	if len(a.layers) != len(wantLayers) {
		t.Errorf("layers = %v, want only %v", a.layers, wantLayers)
	}
	wantGroups := map[string]int64{
		"runtime.sched": 30, "stdlib.fnv": 5, "runtime.malloc": 4, "stdlib.gob": 3, "runtime.gc": 6,
	}
	for g, n := range wantGroups {
		if a.groups[g] != n {
			t.Errorf("group %s = %d, want %d", g, a.groups[g], n)
		}
	}
	if a.attributed != 57 {
		t.Errorf("attributed = %d, want 57 (all but the benchmark's own frames)", a.attributed)
	}
	if got := a.pct(a.groups["runtime.sched"]); !near(got, 100*30.0/59) {
		t.Errorf("sched pct = %v", got)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"jitckpt/internal/vclock.(*Env).dispatch":            "vclock",
		"jitckpt/internal/vclock.(*Queue[go.shape.int]).Pop": "vclock",
		"jitckpt/internal/tensor.Vector.AXPY":                "train",
		"jitckpt/internal/replay.(*Log).Append":              "proxy",
		"jitckpt/internal/scheduler.(*Pool).Allocate":        "cluster",
		"jitckpt/internal/elastic.Plan":                      "cluster",
		"jitckpt/internal/failure.(*Injector).fire":          "cluster",
		"jitckpt/internal/experiments.RunChaos.func1":        "experiments",
		"jitckpt/benchmark.main":                             "",
		"runtime.mallocgc":                                   "",
		"main.main":                                          "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, l := range cpuLayers {
		if layerOf(layerPrefix+l+".F") != l {
			t.Errorf("cpu layer %q does not map to itself", l)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // sample field claiming 127 bytes, 1 present
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
}
