package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set so far, in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// meter measures one unit of work: wall and CPU time.
type meter struct {
	wall time.Time
	cpu  time.Duration
}

func startMeter() meter { return meter{time.Now(), cpuTime()} }

func (m meter) stop() (wall, cpu float64) {
	return time.Since(m.wall).Seconds(), (cpuTime() - m.cpu).Seconds()
}

// rtSample is a snapshot of the Go runtime's allocation and GC counters.
type rtSample struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU               float64 // seconds, from runtime/metrics
	cpu                 time.Duration
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// readRuntime forces a GC cycle and then reads the counters. The runtime
// refreshes its /cpu/classes metrics only when a GC cycle ends, so without
// the forced cycle the GC CPU read here would stop at the last cycle that
// happened to end, not at the call. Call it outside timed spans: the two
// snapshots around some work then bill that work plus the closing forced
// cycle, in the GC CPU and in the process CPU (getrusage) alike.
func readRuntime() rtSample {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := rtSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	samples := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	s.cpu = cpuTime()
	return s
}

// rtDelta is the Go runtime's bill for the work between two snapshots.
type rtDelta struct {
	mallocs, allocMB, gcCycles float64
	gcCPU, cpu                 float64 // seconds: GC CPU and the process's user+system CPU
}

func (a rtSample) to(b rtSample) rtDelta {
	return rtDelta{
		mallocs:  float64(b.mallocs - a.mallocs),
		allocMB:  float64(b.allocBytes-a.allocBytes) / 1e6,
		gcCycles: float64(b.gcCycles - a.gcCycles - 1), // less b's forced cycle
		gcCPU:    b.gcCPU - a.gcCPU,
		cpu:      (b.cpu - a.cpu).Seconds(),
	}
}

func (d rtDelta) plus(e rtDelta) rtDelta {
	return rtDelta{d.mallocs + e.mallocs, d.allocMB + e.allocMB, d.gcCycles + e.gcCycles, d.gcCPU + e.gcCPU, d.cpu + e.cpu}
}

// gcCPUFrac is GC's share of the process's user+system CPU over the work.
// The GC figure is the runtime's own estimate, from time its Ps spent in GC
// (idle-priority mark workers included), so the share is approximate.
func (d rtDelta) gcCPUFrac() float64 {
	if d.cpu <= 0 {
		return 0
	}
	return d.gcCPU / d.cpu
}

// setRuntime records a go-runtime metric set under scope ("", "serial_",
// "part_"), with the counts divided by units of work.
func (r *report) setRuntime(scope string, d rtDelta, units float64, note string) {
	units = max(units, 1e-9)
	r.set("go-runtime."+scope+"mallocs", d.mallocs/units, note)
	r.set("go-runtime."+scope+"alloc_mb", d.allocMB/units, note)
	r.set("go-runtime."+scope+"gc_cycles", d.gcCycles/units, note)
	r.set("go-runtime."+scope+"gc_cpu_frac", d.gcCPUFrac(), note)
}

// cpuProfile runs a CPU profile around the traced part of a run.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns its bytes.
func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}
