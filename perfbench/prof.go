package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// A Go CPU profile is a gzipped profile.proto message. The standard
// library writes it but ships no reader, so this file decodes the few
// fields layer attribution needs: each sample's stack and sample count,
// and the function name and file of every frame.

var errProto = errors.New("pprof: malformed profile")

// protoReader walks one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field returns the next field's number, wire type, scalar value (wire
// types 0, 1, 5) and payload (wire type 2).
func (r *protoReader) field() (num int, wire int, val uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errProto
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return num, wire, val, payload, err
}

// uints decodes a repeated integer field, packed or not.
func uints(wire int, val uint64, payload []byte, into []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(into, val), nil
	}
	pb := protoReader{payload}
	for len(pb.b) > 0 {
		v, err := pb.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, v)
	}
	return into, nil
}

// frame is one function in a stack: its qualified name and source file.
type frame struct{ name, file string }

// cpuSample is one stack (leaf first) with its sample count.
type cpuSample struct {
	stack []frame
	count int64
}

// parseCPUProfile decodes a gzipped CPU profile into stacks.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{}  // location → function IDs, innermost first
		fnName  = map[uint64][2]uint64{} // function → (name, filename) string indexes
	)
	r := protoReader{raw}
	for len(r.b) > 0 {
		num, wire, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		sub := protoReader{payload}
		switch num {
		case 2: // Sample
			var s rawSample
			for len(sub.b) > 0 {
				n, w, v, p, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(w, v, p, s.locs)
				case 2:
					s.values, err = uints(w, v, p, s.values)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(sub.b) > 0 {
				n, _, v, p, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					line := protoReader{p}
					for len(line.b) > 0 {
						ln, _, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name, file uint64
			for len(sub.b) > 0 {
				n, _, v, _, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
			}
			fnName[id] = [2]uint64{name, file}
		case 6: // string_table
			if wire != 2 {
				return nil, errProto
			}
			strs = append(strs, string(payload))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{}
		if len(s.values) > 0 {
			cs.count = int64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				nf := fnName[fn]
				cs.stack = append(cs.stack, frame{name: str(nf[0]), file: str(nf[1])})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// Layer buckets of the CPU-profile attribution.
const (
	layerBench   = "bench"   // this benchmark's own code
	layerRuntime = "runtime" // Go runtime work with no ufork frame (GC, allocator, timers)
)

// schedFrames are the Go runtime's goroutine-handoff frames. In this
// process only the sim engine hands goroutines off (one goroutine per
// simulated task), so a stack of runtime scheduler frames with no ufork
// frame above it is charged to sim.
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.goschedImpl", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.chansend", "runtime.chanrecv", "runtime.stopm", "runtime.startm",
	"runtime.wakep", "runtime.notesleep", "runtime.futex",
}

// frameLayer names the layer a frame belongs to: its ufork/internal/<module>
// package (kernel split into kernel.vfs and kernel.memaccess by source
// file), or the benchmark itself. Other frames belong to no layer.
func frameLayer(f frame) (string, bool) {
	// The benchmark's frames are main.* in its binary and
	// ufork/perfbench.* in its test binary.
	if strings.HasPrefix(f.name, "main.") || strings.HasPrefix(f.name, "ufork/perfbench.") {
		return layerBench, true
	}
	rest, ok := strings.CutPrefix(f.name, "ufork/internal/")
	if !ok {
		return "", false
	}
	pkg := rest
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		if j := strings.Index(rest[i:], "."); j >= 0 {
			pkg = rest[:i+j]
		}
	} else if j := strings.Index(rest, "."); j >= 0 {
		pkg = rest[:j]
	}
	switch {
	case pkg == "kernel":
		switch filepath.Base(f.file) {
		case "vfs.go":
			return "kernel.vfs", true
		case "proc.go":
			return "kernel.memaccess", true
		}
	case strings.HasPrefix(pkg, "apps/"):
		return strings.TrimPrefix(pkg, "apps/"), true
	case strings.HasPrefix(pkg, "obs"):
		return "obs", true
	case strings.HasPrefix(pkg, "bench"):
		return layerBench, true
	}
	return pkg, true
}

// attribute names the layer a sample's self time belongs to: the layer of
// its innermost layer frame, or sim for a bare goroutine handoff, or
// runtime.
func attribute(stack []frame) string {
	for _, f := range stack {
		if l, ok := frameLayer(f); ok {
			return l
		}
	}
	for _, f := range stack {
		for _, s := range schedFrames {
			if f.name == s {
				return "sim"
			}
		}
	}
	return layerRuntime
}

// profileShares returns each layer's share of the profile's samples: self
// (the sample's innermost layer) and cumulative (any frame of the layer
// between the leaf and the benchmark frame that called into it;
// kernel.vfs and kernel.memaccess also count as kernel). Frames above the
// benchmark's own are the simulated tasks' entry wrappers, which every
// sample passes through, so they are left out.
func profileShares(samples []cpuSample) (self, cum map[string]float64) {
	selfN, cumN := map[string]int64{}, map[string]int64{}
	var total int64
	for _, s := range samples {
		selfN[attribute(s.stack)] += s.count
		total += s.count
		seen := map[string]bool{}
		for _, f := range s.stack {
			l, ok := frameLayer(f)
			if !ok {
				continue
			}
			seen[l] = true
			if strings.HasPrefix(l, "kernel.") {
				seen["kernel"] = true
			}
			if l == layerBench {
				break
			}
		}
		for l := range seen {
			cumN[l] += s.count
		}
	}
	share := func(n map[string]int64) map[string]float64 {
		out := make(map[string]float64, len(n))
		for l, c := range n {
			out[l] = ratio(float64(c), float64(total))
		}
		return out
	}
	return share(selfN), share(cumN)
}
