package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }
func (p *pb) varint(field int, v uint64) {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, v)
}
func (p *pb) bytes(field int, data []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}
func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// buildProfile encodes a CPU profile: funcs[i] is function id i+1, each
// location is a list of function ids (innermost inlined first), each stack
// is a list of location ids (leaf first) with its CPU nanoseconds.
func buildProfile(t *testing.T, funcs []string, locs [][]uint64, stacks [][]uint64, ns []int64) []byte {
	t.Helper()
	var prof pb
	strs := append([]string{""}, funcs...)
	for i, st := range stacks {
		var s pb
		s.packed(1, st...)
		s.packed(2, 1, uint64(ns[i])) // samples, cpu nanoseconds
		prof.bytes(2, s.b)
	}
	for i, fids := range locs {
		var l pb
		l.varint(1, uint64(i+1))
		for _, fid := range fids {
			var line pb
			line.varint(1, fid)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	for i := range funcs {
		var f pb
		f.varint(1, uint64(i+1))
		f.varint(2, uint64(i+1)) // string index: strs[i+1] == funcs[i]
		prof.bytes(5, f.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Each sample goes to the innermost frame of a repo module with a layer;
// helper modules are skipped, subpackages count as their module, inlined
// frames are walked innermost first, the benchmark's own frames are the
// harness, and everything else is the Go runtime.
func TestFoldProfileByLayer(t *testing.T) {
	funcs := []string{
		"runtime.mallocgc",                      // 1
		"repro/internal/himeno.stencilCell",     // 2
		"repro/internal/bytepool.Get",           // 3
		"repro/internal/mpi.(*Comm).send",       // 4
		"main.(*loadGen).submit",                // 5
		"net/http.(*Client).Do",                 // 6
		"runtime.gcBgMarkWorker",                // 7
		"repro/internal/trace/critpath.Analyze", // 8
		"repro/internal/cl.(*Queue).Enqueue",    // 9
		"repro/internal/sim.(*Engine).Run",      // 10
	}
	locs := [][]uint64{
		{1},    // 1 mallocgc
		{2},    // 2 stencilCell
		{3},    // 3 bytepool.Get
		{4},    // 4 mpi send
		{5},    // 5 harness
		{6},    // 6 net/http
		{7},    // 7 GC worker
		{8},    // 8 critpath
		{3, 9}, // 9 bytepool.Get inlined into cl Enqueue
		{10},   // 10 sim
	}
	stacks := [][]uint64{
		{1, 2, 10}, // malloc under himeno under sim: himeno
		{3, 4, 10}, // bytepool under mpi: mpi
		{6, 5},     // http client under the harness: harness
		{7},        // GC worker: go-runtime
		{8},        // trace subpackage: trace
		{9, 10},    // inlined: cl
		{1},        // bare runtime: go-runtime
	}
	ns := []int64{30, 20, 10, 40, 5, 7, 3}
	got, err := foldProfile(buildProfile(t, funcs, locs, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"himeno": 30, "mpi": 20, "harness": 10, "go-runtime": 43, "trace": 5, "cl": 7}
	if len(got) != len(want) {
		t.Errorf("folded %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("layer %s: %d ns, want %d (all: %v)", k, got[k], v, got)
		}
	}
	frac := cpuFractions(got)
	if len(frac) != len(layerCPU) {
		t.Errorf("fractions cover %d layers, want %d", len(frac), len(layerCPU))
	}
	if f := frac["go-runtime"]; math.Abs(f-43.0/115) > 1e-12 {
		t.Errorf("go-runtime share %g, want 43/115", f)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("garbage folded without error")
	}
}

// A real profile from runtime/pprof decodes and charges this test's busy
// loop to the harness.
func TestFoldRealProfile(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0.0
	for i := 0; i < 200_000_000; i++ {
		x += float64(i%7) * 0.5
	}
	folded, err := foldProfile(p.stop())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range folded {
		total += v
	}
	if total == 0 {
		t.Skipf("no samples (x=%g)", x)
	}
	if folded["harness"]*2 < total {
		t.Errorf("busy loop charged %v, want mostly harness", folded)
	}
}
