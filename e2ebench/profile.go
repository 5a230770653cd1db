package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers lists the self-time buckets a traced run reports, in print
// order: the repository's modules, then the runtime, syscall, net and
// json buckets, then everything unmapped.
var layers = []string{
	"compress", "dcache", "cache", "dram", "sim", "workloads",
	"experiments", "dse", "serve", "commitlog",
	"runtime", "syscall", "net", "json", "other",
}

// layerPackages maps import paths to layers. Paths are matched exactly
// or as a prefix followed by '/' (see layerOf), so "net" covers
// net/http but "dice/internal/cache" does not cover ".../dcache".
var layerPackages = []struct{ prefix, layer string }{
	{"dice/internal/compress", "compress"},
	{"dice/internal/dcache", "dcache"},
	{"dice/internal/cache", "cache"},
	{"dice/internal/dram", "dram"},
	{"dice/internal/sim", "sim"},
	{"dice/internal/core", "sim"},
	{"dice/internal/workloads", "workloads"},
	{"dice/internal/trace", "workloads"},
	{"dice/internal/data", "workloads"},
	{"dice/internal/graph", "workloads"},
	{"dice/internal/experiments", "experiments"},
	{"dice/internal/parallel", "experiments"},
	{"dice/internal/dse", "dse"},
	{"dice/internal/serve", "serve"},
	{"dice/internal/commitlog", "commitlog"},
	// The raw syscall entry points the syscall package uses sit under
	// internal/runtime, so they must precede the runtime rule.
	{"internal/runtime/syscall", "syscall"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
	{"sync", "runtime"},
	{"internal/sync", "runtime"},
	{"syscall", "syscall"},
	{"internal/syscall", "syscall"},
	{"internal/poll", "syscall"},
	{"os", "syscall"},
	{"net", "net"},
	{"vendor/golang.org/x/net", "net"},
	{"mime", "net"},
	{"encoding/json", "json"},
}

// pkgOf returns the import path of a Go symbol name as pprof records it:
// "dice/internal/dcache.(*Cache).Read.func1" -> "dice/internal/dcache".
// Generic instantiations carry type arguments in brackets, which may
// themselves hold dots and slashes, so they are cut off first.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a leaf function name to its layer.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	for _, lp := range layerPackages {
		if pkg == lp.prefix || strings.HasPrefix(pkg, lp.prefix+"/") {
			return lp.layer
		}
	}
	return "other"
}

// selfFractions decodes a gzipped CPU profile (runtime/pprof output)
// and returns each layer's share of sampled CPU time, attributing each
// sample to the layer of its leaf frame. For a location holding inlined
// calls the leaf is the innermost one. The shares sum to 1; samples
// with no frame go to "other". A profile with no samples yields nil.
func selfFractions(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	by := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if p.valueIdx >= len(s.values) {
			continue
		}
		v := float64(s.values[p.valueIdx])
		layer := "other"
		if len(s.locs) > 0 {
			if fns := p.locs[s.locs[0]]; len(fns) > 0 {
				if name := p.funcs[fns[0]]; name >= 0 && int(name) < len(p.strings) {
					layer = layerOf(p.strings[name])
				}
			}
		}
		by[layer] += v
		total += v
	}
	if total == 0 {
		return nil, nil
	}
	for k := range by {
		by[k] /= total
	}
	return by, nil
}

// profileData is the part of profile.proto the folding needs.
type profileData struct {
	strings  []string
	funcs    map[uint64]int64    // function id -> name (string table index)
	locs     map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
	valueIdx int // index of the CPU-time value in each sample
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers from github.com/google/pprof's profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profString     = 6
)

var errTruncated = errors.New("profile: truncated protobuf")

// parseProfile decodes the gzipped protobuf a CPU profile is written as.
func parseProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profileData{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	var sampleTypes []int64
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case profSample:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: function_id = 1
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIdx = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(p.strings) && p.strings[t] == "cpu" {
			p.valueIdx = i
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, plus the varint value (wire type 0) or the
// payload bytes (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding:
// one value (wire type 0) or a packed run (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
