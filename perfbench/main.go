// Command perfbench is the repository's end-to-end benchmark. One workload
// runs per invocation, in one process:
//
//	perfbench --workload paper|world|serve --seed N --seconds S --trace 0|1
//
// It checks the program's outputs, prints every metric by name and unit,
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the run records spans around every public call it makes, takes
// a CPU profile, and reports the per-layer metrics instead. See README.md
// for what each workload and metric means; perfbench/run.py builds and runs
// it from the repository root.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/sweep"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for the traced run's span file and profile
	quick    bool   // reduced problem sizes (smoke tests only)
	workers  int    // load threads, pool width and engine workers: nproc
	// serveWrap wraps the serve daemon's handler; tests inject faults.
	serveWrap func(http.Handler) http.Handler
}

var workloads = map[string]func(options, *report) error{
	"paper": runPaper,
	"world": runWorld,
	"serve": runServe,
}

func main() {
	var o options
	var seconds float64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, world or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (serve: the request stream)")
	flag.Float64Var(&seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for span files and CPU profiles of traced runs")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok || flag.NArg() > 0 || seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper|world|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = traceFlag == 1
	o.workers = runtime.NumCPU()
	if err := execute(o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// execute runs one workload and prints its report to w; the last line is
// the JSON result.
func execute(o options, w io.Writer) error {
	sweep.SetWorkers(o.workers)
	r := newReport(w)
	fmt.Fprintf(r.log, "perfbench workload=%s seed=%d seconds=%g trace=%t nproc=%d %s/%s %s\n",
		o.workload, o.seed, o.seconds.Seconds(), o.trace, o.workers, runtime.GOOS, runtime.GOARCH, runtime.Version())
	if err := workloads[o.workload](o, r); err != nil {
		return err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		r.set("failed_frac", r.failedFrac(), fmt.Sprintf("%d of %d", r.failed, r.attempted))
	}
	return r.emit(w, defs)
}

// traceRun is the traced part of a run: spans, and for each profiled
// window a CPU profile and the Go runtime's allocation/GC bill. Workloads
// alternate untraced and traced work in short windows, so the overhead
// compares work done under the same host load.
type traceRun struct {
	tr     *tracer
	prof   *cpuProfile // the open window's profile
	rt0    rtSample
	rt     rtDelta          // summed over windows
	folded map[string]int64 // CPU ns per layer, summed over windows
	chunks [][]byte         // each window's profile
}

func newTraceRun(tr *tracer) *traceRun {
	return &traceRun{tr: tr, folded: map[string]int64{}}
}

// open starts a profiled window.
func (t *traceRun) open() error {
	t.rt0 = readRuntime()
	prof, err := startProfile()
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.prof = prof
	return nil
}

// close ends the window, folds its profile by layer, and returns the
// window's Go runtime bill. The runtime snapshots stay outside the profile,
// as their forced GC cycles are not the work's.
func (t *traceRun) close() (rtDelta, error) {
	chunk := t.prof.stop()
	d := t.rt0.to(readRuntime())
	t.rt = t.rt.plus(d)
	t.chunks = append(t.chunks, chunk)
	folded, err := foldProfile(chunk)
	for layer, ns := range folded {
		t.folded[layer] += ns
	}
	return d, err
}

// finishTrace runs the layer probes (after the profiled windows, so they do
// not show in the CPU shares), reports the CPU shares by layer, and writes
// the span file and the profiles under o.out. units is how many units of the
// workload's fixed work the profiled windows ran, for the go-runtime counts.
func finishTrace(o options, r *report, t *traceRun, units float64) error {
	r.setRuntime("", t.rt, units, fmt.Sprintf("per unit of work, %.4g units traced", units))
	runProbes(o, r, t.tr)
	var total int64
	for _, v := range t.folded {
		total += v
	}
	for layer, frac := range cpuFractions(t.folded) {
		r.set("cpu."+layer+"_frac", frac, fmt.Sprintf("of %.3f s profiled CPU in %d windows", float64(total)/1e9, len(t.chunks)))
	}
	fmt.Fprint(r.log, formatSelfTimes(selfTimes(t.tr.snapshot())))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + "-spans.json")
	if err != nil {
		return err
	}
	if err := t.tr.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.MkdirAll(base+"-cpu", 0o755); err != nil {
		return err
	}
	for i, chunk := range t.chunks {
		if err := os.WriteFile(filepath.Join(base+"-cpu", fmt.Sprintf("%03d.pprof", i)), chunk, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(r.log, "wrote %s-spans.json and %d profiles in %s-cpu/\n", base, len(t.chunks), base)
	return nil
}
