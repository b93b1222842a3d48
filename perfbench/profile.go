package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer names the CPU profile is rolled up into. Every sample lands in
// exactly one of them, so the shares of one profile sum to 1.
var layers = []string{
	"sim", "simnet", "wire", "dataplane", "core", "protocol", "store",
	"cluster", "rack", "rebalance", "workload", "metrics", "lincheck",
	"trace", "runtime", "runtime.maps", "rng", "other",
}

// repoLayers are the harmonia/internal packages that are layers of
// their own; sub-packages (internal/protocol/chain, ...) fold into the
// parent.
var repoLayers = map[string]bool{
	"sim": true, "simnet": true, "wire": true, "dataplane": true,
	"core": true, "protocol": true, "store": true, "cluster": true,
	"rack": true, "rebalance": true, "workload": true, "metrics": true,
	"lincheck": true, "trace": true,
}

// gcRoots are the runtime entry points of garbage-collection work. A
// sample with any of them on its stack counts toward the GC share,
// whatever its leaf frame is.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// packageOf returns the import path of a symbolized Go function name,
// e.g. "harmonia/internal/sim.(*Engine).Run" -> "harmonia/internal/sim".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic shape arguments may hold other paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps an import path to its layer name.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "harmonia/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		if repoLayers[top] {
			return top
		}
		return "other"
	}
	switch {
	case pkg == "internal/runtime/maps":
		return "runtime.maps"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math", pkg == "math/rand", pkg == "math/rand/v2":
		return "rng"
	}
	return "other"
}

// Rollup is a CPU profile folded into layers: sampled CPU nanoseconds
// per layer by leaf frame, plus the part of the total spent in GC.
type Rollup struct {
	Layer map[string]int64 `json:"layer"`
	GC    int64            `json:"gc"`
	Total int64            `json:"total"`
}

// Add folds another rollup into r.
func (r *Rollup) Add(o Rollup) {
	if r.Layer == nil {
		r.Layer = make(map[string]int64)
	}
	for k, v := range o.Layer {
		r.Layer[k] += v
	}
	r.GC += o.GC
	r.Total += o.Total
}

// Share returns layer's fraction of the sampled CPU time.
func (r Rollup) Share(layer string) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Layer[layer]) / float64(r.Total)
}

// RollupProfile decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and attributes each sample to the layer of its leaf
// frame.
func RollupProfile(gz []byte) (Rollup, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return Rollup{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return Rollup{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return Rollup{}, err
	}
	out := Rollup{Layer: make(map[string]int64)}
	for _, s := range p.samples {
		v := s.value
		if len(s.locs) == 0 {
			continue
		}
		leaf := p.leafName(s.locs[0])
		out.Layer[layerOf(packageOf(leaf))] += v
		out.Total += v
		for _, loc := range s.locs {
			if p.anyFrame(loc, gcRoots) {
				out.GC += v
				break
			}
		}
	}
	return out, nil
}

// --- a minimal decoder for the pprof profile.proto subset used here ---

type profSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, leaf first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// leafName is the innermost (inlined-into-nothing) function of a
// location: pprof lists a location's lines leaf first.
func (p *profile) leafName(loc uint64) string {
	if fns := p.locs[loc]; len(fns) > 0 {
		return p.funcName(fns[0])
	}
	return ""
}

func (p *profile) anyFrame(loc uint64, set map[string]bool) bool {
	for _, f := range p.locs[loc] {
		if set[p.funcName(f)] {
			return true
		}
	}
	return false
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: varint value or byte payload.
type pbField struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n, err = pbVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field in either packed or unpacked
// form, appending to dst.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			var vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.locs, err = pbUints(s.locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(vals, sf); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.varint
				case 4: // Line
					ls, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // Function
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.varint
				case 2:
					name = int64(ff.varint)
				}
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.bytes))
		}
	}
	return p, nil
}
