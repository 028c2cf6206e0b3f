package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// Layer attribution of a CPU profile. Each sample is charged to exactly one
// layer, so the shares sum to 1:
//
//   - runtime.gc: any frame of the stack is garbage-collector work
//     (background marking, mark assists, sweeping, scavenging);
//   - otherwise the innermost frame that belongs to a simulator package
//     names the layer, so runtime and standard-library frames (mallocgc,
//     map lookups, fmt) are charged to the simulator code that called them;
//   - other: samples with no simulator frame at all (the scheduler, the
//     profiler itself, the benchmark's own code).
//
// sim.(*Engine).Tracef formats every trace line; it is charged to the trace
// layer together with the hasher and its wrapper.

// layers lists every layer a share is reported for, in report order.
var layers = []string{
	"sim", "fluid", "cluster", "xfersched", "rftp", "railmgr", "objstore",
	"datapath", "trace", "runtime.gc", "other",
}

// layerOf maps a simulator package (the path element after internal/) to
// its layer. Packages not listed are charged to other.
var layerOf = map[string]string{
	"sim": "sim", "fluid": "fluid", "cluster": "cluster", "xfersched": "xfersched",
	"rftp": "rftp", "railmgr": "railmgr", "objstore": "objstore", "trace": "trace",
	"fsim": "datapath", "iser": "datapath", "pipe": "datapath", "host": "datapath",
	"numa": "datapath", "fabric": "datapath",
}

// gcFrames are runtime functions whose presence marks a sample as GC work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// frameLayer returns the layer of one function name, or "" when the frame
// is not simulator code.
func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "e2edt/internal/sim.(*Engine).Tracef"),
		strings.Contains(fn, ".(*timedTracer)."):
		return "trace"
	case strings.HasPrefix(fn, "e2edt/internal/"):
		pkg := strings.TrimPrefix(fn, "e2edt/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layerOf[pkg]; ok {
			return l
		}
		return "other"
	}
	return ""
}

// sampleLayer charges one stack (innermost frame first) to a layer.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// layerShares decodes a gzipped pprof CPU profile and returns each layer's
// share of sampled CPU time. An empty profile gives all-zero shares.
func layerShares(gz []byte) (map[string]float64, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	total := 0.0
	for i, st := range stacks {
		out[sampleLayer(st)] += weights[i]
		total += weights[i]
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out, nil
}

// decodeProfile reads the subset of profile.proto a CPU profile needs:
// samples (location ids, values), locations (id, lines), functions (id,
// name) and the string table. Stacks come back innermost frame first,
// inlined frames expanded; each weight is the sample's last value (CPU
// nanoseconds).
func decodeProfile(gz []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.weight = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]float64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx >= 0 && idx < int64(len(strs)) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		weights[i] = float64(s.weight)
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message. For varint fields v holds the
// value and b is nil; for length-delimited fields b holds the payload.
// Fixed-width fields are skipped.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errTruncated
			}
			buf = buf[w:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, buf[n:n+int(l)]); err != nil {
				return err
			}
			buf = buf[n+int(l):]
		default:
			return errors.New("unsupported protobuf wire type")
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (b non-nil) or not.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
