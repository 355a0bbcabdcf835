package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json carries the same names, units and directions
// (a test checks they agree), and every run prints every metric of its
// list — end-to-end with tracing off, per-layer with tracing on.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the program sees; every workload
// reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// layerCPU lists the layers the CPU profile is folded into, in report
// order: the repo modules, the Go runtime, and the benchmark's own code.
var layerCPU = []string{
	"bench", "sweep", "sim", "mpi", "cl", "xfer", "clmpi", "cluster",
	"himeno", "nanopowder", "serve", "trace", "obs", "go-runtime", "harness",
}

// perLayer are the traced run's metrics. A workload that does not exercise
// a layer reports 0 for that layer's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Workload figures, taken from the untraced half of a traced run.
		{"gain_err_pp", "pp", "lower"},
		{"serial_msgs_per_s", "msg/s", "higher"},
		{"part_msgs_per_s", "msg/s", "higher"},
		{"shard_skew_pct", "%", "lower"},
		{"job_p50_ms", "ms", "lower"},
		{"job_p99_ms", "ms", "lower"},
		{"jobs_per_s", "1/s", "higher"},
		{"failed_frac", "ratio", "lower"},

		{"bench.table1_s", "s", "lower"},
		{"bench.fig4_s", "s", "lower"},
		{"bench.fig8_s", "s", "lower"},
		{"bench.fig9_s", "s", "lower"},
		{"bench.fig10_s", "s", "lower"},
		{"bench.matchscale_s", "s", "lower"},
		{"bench.verify_s", "s", "lower"},
		{"sweep.busy_frac", "ratio", "higher"},
		{"sweep.slowest_point_s", "s", "lower"},
		{"himeno.kernel_ns_per_cell", "ns", "lower"},
		{"nanopowder.reference_s", "s", "lower"},
		{"xfer.p2p_host_ms", "ms", "lower"},

		{"sim.procs", "count", "lower"},
		{"sim.timer_events", "count", "lower"},
		{"sim.host_ns_per_event", "ns", "lower"},
		{"sim.sim_ms_serial", "ms", "lower"},
		{"sim.sim_ms_part", "ms", "lower"},
		{"sim.part_windows", "count", "lower"},
		{"sim.part_stalls", "count", "lower"},
		{"sim.part_adverts", "count", "lower"},
		{"sim.part_simulate_s", "s", "lower"},
		{"sim.part_stall_s", "s", "lower"},
		{"sim.part_merge_s", "s", "lower"},
		{"sim.part_advert_s", "s", "lower"},
		{"sim.part_occupancy", "ratio", "higher"},
		{"mpi.messages", "count", "higher"},
		{"mpi.posted_hw", "count", "lower"},
		{"mpi.unexpected_hw", "count", "lower"},
	}
	for _, scope := range []string{"", "serial_", "part_"} {
		defs = append(defs,
			metricDef{"go-runtime." + scope + "mallocs", "count", "lower"},
			metricDef{"go-runtime." + scope + "alloc_mb", "MB", "lower"},
			metricDef{"go-runtime." + scope + "gc_cycles", "count", "lower"},
			metricDef{"go-runtime." + scope + "gc_cpu_frac", "ratio", "lower"},
		)
	}
	defs = append(defs,
		metricDef{"serve.hit_ratio", "ratio", "higher"},
		metricDef{"serve.hit_p50_ms", "ms", "lower"},
		metricDef{"serve.hit_p99_ms", "ms", "lower"},
		metricDef{"serve.miss_p50_ms", "ms", "lower"},
		metricDef{"serve.miss_p99_ms", "ms", "lower"},
		metricDef{"serve.slot_wait_s", "s", "lower"},
		metricDef{"serve.point_s", "s", "lower"},
		metricDef{"serve.decode_hash_us", "us", "lower"},
		metricDef{"serve.cache_get_us", "us", "lower"},
		metricDef{"serve.cache_put_us", "us", "lower"},
	)
	for _, l := range layerCPU {
		defs = append(defs, metricDef{"cpu." + l + "_frac", "ratio", "lower"})
	}
	return append(defs, metricDef{"trace_overhead_frac", "ratio", "lower"})
}()

// report accumulates one run's checks and metrics. check and fail may be
// called from several goroutines.
type report struct {
	mu                sync.Mutex
	attempted, failed int
	values            map[string]float64
	notes             map[string]string
	log               io.Writer // human-readable progress and check failures
}

func newReport(log io.Writer) *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}, log: log}
}

// check counts one output check and logs a failing one.
func (r *report) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "CHECK FAILED: %s\n", fmt.Sprintf(format, args...))
	}
}

// fail counts a failed operation (an error where a result was expected).
func (r *report) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	fmt.Fprintf(r.log, "FAILED: %v\n", err)
}

// set records a metric value with an optional note (sample count, which
// percentile) for the human-readable listing.
func (r *report) set(name string, v float64, note ...string) {
	r.values[name] = v
	if len(note) > 0 {
		r.notes[name] = strings.Join(note, "; ")
	}
}

func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric of defs by name and unit (plus any extra values
// the run recorded), then the one-line JSON result the harness reads, which
// must be the last line of standard output. Metrics of defs the run did not
// record report 0; a non-finite value is an error.
func (r *report) emit(w io.Writer, defs []metricDef) error {
	res := result{
		Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // a run that checked nothing is a failure, not an empty success
		res.Failed = 1
	}
	fmt.Fprintf(w, "\n%-32s %14s  %-6s  %s\n", "metric", "value", "unit", "note")
	inDefs := map[string]bool{}
	for _, d := range defs {
		inDefs[d.Name] = true
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-32s %14.6g  %-6s  %s\n", d.Name, v, d.Unit, r.notes[d.Name])
	}
	var extra []string
	for name := range r.values {
		if !inDefs[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-32s %14.6g  %-6s  %s\n", name, r.values[name], unitOf(name), r.notes[name])
	}
	if !inDefs["failed_frac"] {
		fmt.Fprintf(w, "%-32s %14.6g  %-6s  %d of %d checks failed\n", "failed_frac", r.failedFrac(), "ratio", r.failed, r.attempted)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// unitOf finds a metric's unit in either list.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
