package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"harmonia/internal/sim.(*Engine).Run":                     "sim",
		"harmonia/internal/simnet.(*Network).Send":                "simnet",
		"harmonia/internal/protocol/chain.(*Replica).Recv":        "protocol",
		"harmonia/internal/cluster.(*Cluster).RunLoads.func3":     "cluster",
		"harmonia/internal/experiments.FigPerf":                   "other",
		"harmonia/internal/dataplane.(*Table)[go.shape.int].Find": "dataplane",
		"internal/runtime/maps.(*Map).getWithKeySmall":            "runtime.maps",
		"internal/runtime/atomic.(*Uint32).Load":                  "runtime",
		"runtime.mallocgc":                                        "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":              "runtime",
		"math.Pow":                     "rng",
		"math/rand.(*Rand).ExpFloat64": "rng",
		"math/bits.Mul64":              "other",
		"sort.Slice[go.shape.harmonia/internal/x.T]": "other",
		"sync.(*Mutex).Lock":                         "other",
		"main.main":                                  "other",
		"":                                           "other",
	}
	for fn, want := range cases {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layerOf(packageOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a tiny protobuf encoder for building canned profiles.
type pb struct{ b []byte }

func (e *pb) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *pb) uint(num int, v uint64) { e.varint(uint64(num)<<3 | 0); e.varint(v) }

func (e *pb) bytes(num int, b []byte) {
	e.varint(uint64(num)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *pb) packed(num int, vs ...uint64) {
	var in pb
	for _, v := range vs {
		in.varint(v)
	}
	e.bytes(num, in.b)
}

// cannedProfile encodes a CPU profile with one function per location
// (location i+1 -> function i+1 -> names[i]) and the given samples,
// each a CPU-nanosecond value and a leaf-first stack of location ids.
// Locations listed in inlined get a second, caller line, to exercise
// the leaf-first rule.
func cannedProfile(t *testing.T, names []string, samples []struct {
	ns    uint64
	stack []uint64
}, inlined map[uint64]uint64) []byte {
	t.Helper()
	var p pb
	strs := append([]string{""}, names...)
	for _, s := range samples {
		var sp pb
		if len(s.stack) == 1 {
			sp.uint(1, s.stack[0]) // unpacked form
		} else {
			sp.packed(1, s.stack...)
		}
		sp.packed(2, 1, s.ns)
		p.bytes(2, sp.b)
	}
	for i := range names {
		id := uint64(i + 1)
		var lp pb
		lp.uint(1, id)
		var line pb
		line.uint(1, id)
		lp.bytes(4, line.b)
		if caller, ok := inlined[id]; ok {
			var l2 pb
			l2.uint(1, caller)
			lp.bytes(4, l2.b)
		}
		p.bytes(4, lp.b)
		var fp pb
		fp.uint(1, id)
		fp.uint(2, uint64(i+1))
		p.bytes(5, fp.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRollupCannedProfile(t *testing.T) {
	names := []string{
		"harmonia/internal/sim.(*Engine).fire",         // 1
		"harmonia/internal/cluster.(*vclient).Recv",    // 2
		"internal/runtime/maps.(*Map).getWithKeySmall", // 3
		"runtime.scanobject",                           // 4
		"runtime.gcBgMarkWorker",                       // 5
		"math/rand.(*Rand).ExpFloat64",                 // 6
		"harmonia/internal/wire.(*Packet).Release",     // 7
		"sync.(*Pool).Get",                             // 8
	}
	samples := []struct {
		ns    uint64
		stack []uint64
	}{
		{10, []uint64{1}},
		{20, []uint64{2, 1}},
		{30, []uint64{3, 2, 1}},
		{40, []uint64{4, 5}},
		{50, []uint64{6, 2, 1}},
		{60, []uint64{7, 1}}, // location 7 inlines Release into Recv
		{70, []uint64{8}},
	}
	r, err := RollupProfile(cannedProfile(t, names, samples, map[uint64]uint64{7: 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"sim": 10, "cluster": 20, "runtime.maps": 30, "runtime": 40,
		"rng": 50, "wire": 60, "other": 70,
	}
	var sum int64
	for _, l := range layers {
		sum += r.Layer[l]
		if r.Layer[l] != want[l] {
			t.Errorf("layer %s = %d, want %d", l, r.Layer[l], want[l])
		}
	}
	if r.Total != 280 || sum != r.Total {
		t.Errorf("total = %d, layer sum = %d, want 280", r.Total, sum)
	}
	if r.GC != 40 {
		t.Errorf("gc = %d, want 40", r.GC)
	}
	if got := r.Share("other"); got != 0.25 {
		t.Errorf("other share = %v, want 0.25", got)
	}
	for l := range r.Layer {
		if !contains(layers, l) {
			t.Errorf("sample attributed to unlisted layer %q", l)
		}
	}
}

// TestRollupRealProfile decodes a profile written by runtime/pprof and
// checks the attribution is complete: every sampled nanosecond lands
// in a listed layer.
func TestRollupRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	m := map[int]int{}
	for i := 0; time.Now().Before(deadline); i++ {
		m[i%4096] += i
	}
	pprof.StopCPUProfile()
	r, err := RollupProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for l, v := range r.Layer {
		if !contains(layers, l) {
			t.Errorf("sample attributed to unlisted layer %q", l)
		}
		sum += v
	}
	if sum != r.Total {
		t.Errorf("layer sum %d != total %d", sum, r.Total)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
