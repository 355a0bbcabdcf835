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

// The CPU profile runtime/pprof writes is a gzipped profile.proto message.
// foldProfile decodes the few fields it needs with the standard library:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (packed), 2 value (packed)
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (string index)
//
// and charges each sample's last value (CPU nanoseconds) to the layer of the
// innermost frame that belongs to a repo module.

// modulePrefix is the import-path prefix of the repo's modules.
const modulePrefix = "repro/internal/"

// harnessPrefixes name the benchmark's own functions: package main in the
// benchmark binary, its import path in a test binary.
var harnessPrefixes = []string{"main.", "repro/perfbench."}

func isHarness(name string) bool {
	for _, p := range harnessPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// layerOfModule maps a repo module to the layer it is charged to. Modules
// missing here (bytepool, core, storage, profiling: helpers with no layer of
// their own) are skipped, so their samples go to the nearest caller that has
// a layer.
var layerOfModule = func() map[string]string {
	m := map[string]string{}
	for _, l := range layerCPU {
		if l != "go-runtime" && l != "harness" {
			m[l] = l
		}
	}
	return m
}()

// layerOfFunc returns the layer of a fully qualified function name, or "".
func layerOfFunc(name string) string {
	if rest, ok := strings.CutPrefix(name, modulePrefix); ok {
		mod := rest
		if i := strings.IndexAny(mod, "/."); i >= 0 {
			mod = mod[:i]
		}
		return layerOfModule[mod]
	}
	return ""
}

type pbLocation struct{ funcs []uint64 } // innermost inlined function first
type pbSample struct {
	locs  []uint64
	value int64
}

// foldProfile reads a gzipped CPU profile and returns the CPU nanoseconds
// charged to each layer. A sample with no repo frame goes to "go-runtime",
// unless the benchmark's own code is on its stack ("harness").
func foldProfile(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples   []pbSample
		locations = map[uint64]pbLocation{}
		funcName  = map[uint64]int64{} // function id -> string index
		strs      []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			id, loc, err := decodeLocation(b)
			locations[id] = loc
			return err
		case 5:
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	nameOf := func(fid uint64) string {
		if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := map[string]int64{}
	for _, s := range samples {
		layer, harness := "", false
	stack:
		for _, lid := range s.locs {
			for _, fid := range locations[lid].funcs {
				name := nameOf(fid)
				if l := layerOfFunc(name); l != "" {
					layer = l
					break stack
				}
				if isHarness(name) {
					harness = true
				}
			}
		}
		switch {
		case layer != "":
		case harness:
			layer = "harness"
		default:
			layer = "go-runtime"
		}
		out[layer] += s.value
	}
	return out, nil
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	var values []int64
	err := walkFields(b, func(f, wire int, v uint64, p []byte) error {
		switch {
		case f == 1 && wire == 2:
			return unpack(p, func(x uint64) { s.locs = append(s.locs, x) })
		case f == 1:
			s.locs = append(s.locs, v)
		case f == 2 && wire == 2:
			return unpack(p, func(x uint64) { values = append(values, int64(x)) })
		case f == 2:
			values = append(values, int64(v))
		}
		return nil
	})
	if len(values) > 0 {
		s.value = values[len(values)-1]
	}
	return s, err
}

func decodeLocation(b []byte) (uint64, pbLocation, error) {
	var id uint64
	var loc pbLocation
	err := walkFields(b, func(f, _ int, v uint64, p []byte) error {
		switch f {
		case 1:
			id = v
		case 4:
			return walkFields(p, func(lf, _ int, lv uint64, _ []byte) error {
				if lf == 1 {
					loc.funcs = append(loc.funcs, lv)
				}
				return nil
			})
		}
		return nil
	})
	return id, loc, err
}

// walkFields calls fn for every field of a protobuf message: v is the value
// of a varint or fixed field, b the payload of a length-delimited one.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// unpack decodes a packed repeated varint field.
func unpack(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// cpuFractions turns folded nanoseconds into each layer's share of the
// profile, with every layer of layerCPU present.
func cpuFractions(folded map[string]int64) map[string]float64 {
	var total int64
	for _, v := range folded {
		total += v
	}
	out := map[string]float64{}
	for _, l := range layerCPU {
		if total > 0 {
			out[l] = float64(folded[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
