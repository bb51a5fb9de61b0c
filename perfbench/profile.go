package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The CPU profile is attributed to the repository's layers without any
// profile library: runtime/pprof writes a gzipped protocol buffer, and
// the few fields needed here (samples, locations, functions, strings)
// are decoded directly.

// Field numbers of perftools.profiles.Profile and its messages.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errBadProfile = errors.New("perfbench: malformed CPU profile")

// pbField is one decoded protocol-buffer field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errBadProfile
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		tag, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			f.value, n, err = readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errBadProfile
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errBadProfile
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errBadProfile
			}
			b = b[4:]
		default:
			return nil, errBadProfile
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated scalar field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// profileStacks decodes a gzipped CPU profile into its samples: each
// sample's function names from leaf to root and its sample count.
func profileStacks(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("open profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("read profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	for _, f := range fields {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.data))
		case profFunction:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case functionID:
					id = g.value
				case functionName:
					name = g.value
				}
			}
			funcName[id] = name
		case profLocation:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case locationID:
					id = g.value
				case locationLine:
					line, err := pbFields(g.data)
					if err != nil {
						return nil, nil, err
					}
					for _, h := range line {
						if h.num == lineFunctionID {
							fns = append(fns, h.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case profSample:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, nil, err
			}
			var s sample
			for _, g := range sub {
				vs, err := g.varints()
				if err != nil {
					return nil, nil, err
				}
				switch g.num {
				case sampleLocationID:
					s.locs = append(s.locs, vs...)
				case sampleValue:
					if s.count == 0 && len(vs) > 0 {
						s.count = int64(vs[0]) // samples/count comes first
					}
				}
			}
			samples = append(samples, s)
		}
	}
	stacks := make([][]string, 0, len(samples))
	counts := make([]int64, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		stacks = append(stacks, frames)
		counts = append(counts, s.count)
	}
	return stacks, counts, nil
}

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "ecstore/internal/"

// benchPackage is this package's import path, which names its functions
// in test binaries (the command itself profiles as package main).
const benchPackage = "ecstore/perfbench"

// layerGroups folds packages that form one layer of the request path.
var layerGroups = map[string]string{
	"wire": "rpc", "transport": "rpc",
	"gf256": "erasure", "matrix": "erasure",
}

// funcPackage returns the import path of a profiled function name such
// as "ecstore/internal/ilp.(*tableau).pivot".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf names the layer a sample's CPU time belongs to: the nearest
// repository package on its stack (so memmove under MemStore.Get counts
// as storage), "bench" for the benchmark's own package, and
// "runtime" for stacks with neither (scheduler, network poller, the
// garbage collector's background workers).
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "main" || pkg == benchPackage {
			return "bench"
		}
		if name, ok := strings.CutPrefix(pkg, modulePrefix); ok {
			if g, ok := layerGroups[name]; ok {
				return g
			}
			return name
		}
	}
	return "runtime"
}

// cpuShares attributes a CPU profile to layers: each layer's share of
// all samples.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	stacks, counts, err := profileStacks(gz)
	if err != nil {
		return nil, 0, err
	}
	var total int64
	byLayer := map[string]int64{}
	for i, st := range stacks {
		byLayer[layerOf(st)] += counts[i]
		total += counts[i]
	}
	out := make(map[string]float64, len(byLayer))
	for l, n := range byLayer {
		out[l] = ratio(float64(n), float64(total))
	}
	return out, total, nil
}

// goroutinesIn counts live goroutines whose stack contains fn, from the
// runtime's goroutine profile.
func goroutinesIn(fn string) (int, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return 0, fmt.Errorf("goroutine profile: %w", err)
	}
	total := 0
	// After a "goroutine profile: total N" header, records are
	// blank-line separated and each starts "N @ addr...".
	_, body, _ := strings.Cut(buf.String(), "\n")
	for _, rec := range strings.Split(body, "\n\n") {
		if !strings.Contains(rec, fn) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(rec, "%d @", &n); err == nil {
			total += n
		}
	}
	return total, nil
}
