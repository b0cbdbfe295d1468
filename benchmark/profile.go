package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the pprof CPU-profile format (gzip-compressed
// profile.proto), so the benchmark can charge CPU samples to layers
// without importing anything outside the standard library. Only the
// fields attribution needs are decoded: samples (location ids + values),
// locations (lines → function ids), functions (name) and the string
// table.

// profSample is one stack sample: function names leaf first, and the
// sample count.
type profSample struct {
	stack []string
	count int64
}

// protoReader walks the fields of one protobuf message.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("profile: varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, its varint value (wire type 0)
// or its bytes (wire type 2). Fixed-width fields are skipped over and
// returned with neither. ok is false at the end of the message or on
// error.
func (r *protoReader) next() (field int, v uint64, data []byte, ok bool) {
	if r.err != nil || len(r.b) == 0 {
		return 0, 0, nil, false
	}
	key := r.varint()
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v = r.varint()
	case 1:
		r.take(8)
	case 2:
		data = r.take(r.varint())
	case 5:
		r.take(4)
	default:
		r.err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return field, v, data, r.err == nil
}

func (r *protoReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// repeatedVarints appends a repeated integer field's values, whether the
// writer packed them (data) or emitted one per key (v).
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// parseProfile decodes a gzip-compressed pprof profile into samples.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string-table index
	)
	top := protoReader{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var s rawSample
			m := protoReader{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, m.err = repeatedVarints(s.locs, v, d)
				case 2:
					s.values, m.err = repeatedVarints(s.values, v, d)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			m := protoReader{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := protoReader{b: d}
					for {
						lf, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			m := protoReader{b: data}
			for {
				f, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, top.err
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: 1}
		if len(s.values) > 0 {
			ps.count = int64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

const layerPrefix = "jitckpt/internal/"

// layerAlias folds helper packages into the layer they serve.
var layerAlias = map[string]string{
	"tensor": "train", "replay": "proxy",
	"scheduler": "cluster", "elastic": "cluster", "failure": "cluster",
	"metrics": "core", "workload": "core", "analysis": "experiments",
}

// cpuLayers are the layers a <layer>.cpu_pct metric exists for.
var cpuLayers = []string{
	"vclock", "gpu", "cuda", "nccl", "train", "checkpoint", "peerckpt", "erasure",
	"pipefree", "intercept", "proxy", "cluster", "core", "trace", "tracestream", "experiments",
}

// layerOf returns the layer a function belongs to ("" for code outside
// jitckpt/internal).
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if a, ok := layerAlias[rest]; ok {
		return a
	}
	return rest
}

// Runtime and standard-library symbol groups, after the functional
// grouping of the runtime's symbols (scheduling, allocation, collection).
// A sample belongs to the group of the innermost frame on its stack that
// starts with one of a group's prefixes, so the lists name each group's
// entry points and distinctive internals, not every leaf: a sample deep
// inside the collector still has gcDrain or gcBgMarkWorker above it. Frames
// every stack has (goexit, mstart, systemstack) are deliberately absent.
var symbolGroups = []struct {
	name     string
	prefixes []string
}{
	{"stdlib.gob", []string{"encoding/gob.", "reflect.", "encoding/binary."}},
	{"stdlib.fnv", []string{"hash/fnv."}},
	{"runtime.gc", []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcMark", "runtime.gcAssistAlloc", "runtime.gcStart",
		"runtime.gcSweep", "runtime.gcFlushBgCredit", "runtime.gcResetMarkState", "runtime.(*gcWork)",
		"runtime.(*gcControllerState)", "runtime.(*gcCPULimiterState)", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.greyobject", "runtime.markroot", "runtime.findObject", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
		"runtime.(*scavengerState)", "runtime.(*pageAlloc).scavenge", "runtime.wbBufFlush", "runtime.(*wbBuf)",
		"runtime.gcWriteBarrier", "runtime.wbZero", "runtime.wbMove", "runtime.bulkBarrierPreWrite",
		"runtime.(*mheap).reclaim", "runtime.(*mheap).freeSpan", "runtime.GC", "runtime.stopTheWorld",
		"runtime.startTheWorld", "runtime.forEachP", "runtime.stackfree", "runtime.ReadMemStats",
	}},
	{"runtime.malloc", []string{
		"runtime.mallocgc", "runtime.malloc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makechan", "runtime.makemap", "runtime.rawbyteslice", "runtime.rawstring",
		"runtime.slicebytetostring", "runtime.stringtoslicebyte", "runtime.concatstring", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap).alloc", "runtime.(*mheap).grow", "runtime.memclrNoHeapPointers",
		"runtime.newstack", "runtime.morestack", "runtime.copystack", "runtime.malg", "runtime.stackalloc",
	}},
	{"runtime.sched", []string{
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		"runtime.gogo", "runtime.gosched", "runtime.Gosched", "runtime.execute", "runtime.findRunnable",
		"runtime.stealWork", "runtime.runq", "runtime.globrunq", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.mPark", "runtime.handoffp", "runtime.pidle", "runtime.acquirep", "runtime.releasep",
		"runtime.resetspinning", "runtime.checkTimers", "runtime.(*timers)", "runtime.casgstatus",
		"runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv", "runtime.closechan",
		"runtime.selectgo", "runtime.selectnb", "runtime.acquireSudog", "runtime.releaseSudog",
		"runtime.newproc", "runtime.goexit0", "runtime.goexit1", "runtime.gdestroy", "runtime.gfget", "runtime.gfput",
		"runtime.futex", "runtime.notewakeup", "runtime.notesleep", "runtime.notetsleep",
		"runtime.lock", "runtime.unlock", "runtime.procyield", "runtime.osyield", "runtime.usleep",
		"runtime.injectglist", "runtime.netpoll", "runtime.sysmon", "runtime.retake", "runtime.preemptone",
		"runtime.asyncPreempt", "runtime.sigtramp", "runtime.sighandler", "runtime.sigprof", "runtime.sigreturn",
		"runtime.exitsyscall", "runtime.entersyscall", "runtime.reentersyscall",
	}},
}

// groupOf returns the symbol group a function belongs to ("" for none).
func groupOf(fn string) string {
	for _, g := range symbolGroups {
		for _, p := range g.prefixes {
			if strings.HasPrefix(fn, p) {
				return g.name
			}
		}
	}
	return ""
}

// attribution is the result of charging every CPU sample twice: once to
// the innermost jitckpt/internal layer on its stack, once to the innermost
// frame that falls in a runtime/stdlib symbol group.
type attribution struct {
	total      int64
	layers     map[string]int64
	groups     map[string]int64
	attributed int64 // samples that got a layer or a group
}

func attribute(samples []profSample) attribution {
	a := attribution{layers: map[string]int64{}, groups: map[string]int64{}}
	for _, s := range samples {
		a.total += s.count
		layer, group := "", ""
		for _, fn := range s.stack {
			if layer == "" {
				layer = layerOf(fn)
			}
			if group == "" {
				group = groupOf(fn)
			}
			if layer != "" && group != "" {
				break
			}
		}
		if layer != "" {
			a.layers[layer] += s.count
		}
		if group != "" {
			a.groups[group] += s.count
		}
		if layer != "" || group != "" {
			a.attributed += s.count
		}
	}
	return a
}

// pct returns n as a percentage of the profile's samples.
func (a attribution) pct(n int64) float64 {
	if a.total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(a.total)
}
