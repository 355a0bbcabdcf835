package main

import "testing"

var sink [][]byte

// A runtime bill covers the work between its snapshots: the closing forced
// GC cycle is not counted as the work's, GC CPU is read up to the snapshot,
// and the GC share is of process CPU.
func TestRuntimeDeltaCoversWork(t *testing.T) {
	a := readRuntime()
	if d := a.to(readRuntime()); d.gcCycles != 0 {
		t.Fatalf("no work between snapshots: %v GC cycles, want 0", d.gcCycles)
	}
	a = readRuntime()
	for i := 0; i < 4000; i++ {
		sink = append(sink, make([]byte, 64<<10))
		if len(sink) > 64 {
			sink = sink[:0]
		}
	}
	d := a.to(readRuntime())
	sink = nil
	if d.gcCycles < 1 || d.allocMB < 200 || d.mallocs < 4000 {
		t.Fatalf("allocating work: %v GC cycles, %.1f MB, %v mallocs", d.gcCycles, d.allocMB, d.mallocs)
	}
	if d.gcCPU <= 0 || d.cpu <= 0 {
		t.Fatalf("allocating work: GC CPU %v s of %v s, want both > 0", d.gcCPU, d.cpu)
	}
}
