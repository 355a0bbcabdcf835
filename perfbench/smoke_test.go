package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

func quickOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload, seed: 5, seconds: 400 * time.Millisecond, trace: traced,
		out: t.TempDir(), quick: true, workers: 2,
	}
}

// runSmoke runs a workload through execute and returns the parsed result
// line and the whole output.
func runSmoke(t *testing.T, o options) (result, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := execute(o, &buf); err != nil {
		t.Fatalf("%s: %v\n%s", o.workload, err, buf.String())
	}
	out := strings.TrimSpace(buf.String())
	lines := strings.Split(out, "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res, out
}

// checkMetrics asserts the result carries exactly the metrics of defs, with
// their units, and that the listed ones are positive.
func checkMetrics(t *testing.T, res result, defs []metricDef, positive ...string) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
	}
	for _, name := range positive {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("metric %s = %g, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// checkCPUShares asserts the folded CPU profile's layer shares sum to one.
func checkCPUShares(t *testing.T, res result) {
	t.Helper()
	sum := 0.0
	for _, l := range layerCPU {
		sum += res.Metrics["cpu."+l+"_frac"].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu layer shares sum to %g, want 1", sum)
	}
}

func TestSmokeWorld(t *testing.T) {
	res, out := runSmoke(t, quickOptions(t, "world", false))
	if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
		t.Fatalf("untraced world: %+v\n%s", res, out)
	}
	checkMetrics(t, res, endToEnd, "setup_s", "wall_s", "cpu_s", "max_rss_mb")

	o := quickOptions(t, "world", true)
	res, out = runSmoke(t, o)
	if !res.Correct {
		t.Fatalf("traced world: %+v\n%s", res, out)
	}
	checkMetrics(t, res, perLayer, "serial_msgs_per_s", "part_msgs_per_s", "sim.procs", "sim.timer_events",
		"sim.sim_ms_serial", "sim.sim_ms_part", "sim.part_windows", "sim.part_simulate_s", "mpi.messages",
		"go-runtime.serial_mallocs", "go-runtime.part_mallocs", "cpu.sim_frac", "himeno.kernel_ns_per_cell",
		"serve.decode_hash_us")
	checkCPUShares(t, res)
	for _, name := range []string{"world-seed5-spans.json", "world-seed5-cpu/000.pprof"} {
		if _, err := os.Stat(filepath.Join(o.out, name)); err != nil {
			t.Errorf("traced run wrote no %s: %v", name, err)
		}
	}
	var doc struct{ Spans []span }
	data, err := os.ReadFile(filepath.Join(o.out, "world-seed5-spans.json"))
	if err != nil || json.Unmarshal(data, &doc) != nil || len(doc.Spans) == 0 {
		t.Fatalf("span file unreadable or empty: %v", err)
	}
}

// The public-API world's virtual-time results must equal bench.MatchScalePoint's; a
// doctored one fails the check.
func TestWorldCheckAgainstBench(t *testing.T) {
	c := defaultWorld()
	c.ranks = 64
	sweep.SetWorkers(2)
	r := newReport(&bytes.Buffer{})
	s, err := worldIteration(c, 2, nil, nil, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBench(c, 2, s, r)
	if r.failed != 0 || r.attempted != 4 {
		t.Fatalf("honest world: %d of %d checks failed", r.failed, r.attempted)
	}
	s.part.out.simMS *= 1.01
	s.serial.out.postedHW++
	checkAgainstBench(c, 2, s, r)
	if r.failed != 2 {
		t.Fatalf("doctored world: %d checks failed, want 2", r.failed)
	}
}

func TestSmokeServe(t *testing.T) {
	res, out := runSmoke(t, quickOptions(t, "serve", false))
	if !res.Correct || res.Failed != 0 || res.Attempted < 200 {
		t.Fatalf("untraced serve: %+v\n%s", res, out)
	}
	checkMetrics(t, res, endToEnd, "setup_s", "wall_s", "cpu_s", "max_rss_mb")
	res, out = runSmoke(t, quickOptions(t, "serve", true))
	if !res.Correct {
		t.Fatalf("traced serve: %+v\n%s", res, out)
	}
	checkMetrics(t, res, perLayer, "job_p50_ms", "jobs_per_s", "serve.hit_ratio", "serve.hit_p50_ms",
		"serve.miss_p50_ms", "serve.point_s", "go-runtime.mallocs")
	checkCPUShares(t, res)
}

// faultyHandler answers every 10th submission with a 500 and hands out a
// doctored (still valid JSON) result for every 7th.
func faultyHandler(h http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		i := n.Add(1)
		if i%10 == 0 {
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if i%7 == 0 {
			var st map[string]any
			if err := json.Unmarshal(body, &st); err == nil {
				if res, ok := st["result"].(map[string]any); ok {
					res["doctored"] = true
					body, _ = json.Marshal(st)
				}
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestSmokeServeFaultsRaiseFailedFrac(t *testing.T) {
	o := quickOptions(t, "serve", false)
	o.serveWrap = faultyHandler
	res, out := runSmoke(t, o)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("faults went unnoticed: %+v", res)
	}
	// Roughly a tenth are 500s and a seventh doctored.
	if frac := float64(res.Failed) / float64(res.Attempted); frac < 0.1 {
		t.Errorf("failed_frac %.3f, want at least the 500s' share", frac)
	}
	if !strings.Contains(out, "reply 500") || !strings.Contains(out, "differs from the first one served") {
		t.Errorf("failure log lacks the 500 or the doctored result:\n%.2000s", out)
	}
}

func TestSmokePaperAndCorruption(t *testing.T) {
	sweep.SetWorkers(2)
	p, err := setupPaper(quickPaper())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.iterate()
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	r := newReport(&log)
	checkPaper(r, res, p.cfg.gainBand)
	if r.failed != 0 || r.attempted != 10 {
		t.Fatalf("quick evaluation: %d of %d checks failed:\n%s", r.failed, r.attempted, log.String())
	}
	// Corrupted outputs each fail one check.
	res.verify["himeno clMPI"] = false
	c := res.fig8["cichlid"]
	c["mapped"][64<<10], c["pinned"][64<<10] = c["pinned"][64<<10], c["mapped"][64<<10]
	res.gain = 1.5
	r = newReport(&bytes.Buffer{})
	checkPaper(r, res, paperGainBand)
	if r.failed != 3 {
		t.Errorf("corrupted evaluation: %d checks failed, want 3", r.failed)
	}
}

// The traced run replays every section point by point, checks the replay
// against the untraced run, and reports the bench and sweep layers.
func TestSmokePaperTraced(t *testing.T) {
	res, out := runSmoke(t, quickOptions(t, "paper", true))
	if !res.Correct || res.Attempted != 31 {
		t.Fatalf("traced paper: %+v\n%s", res, out)
	}
	checkMetrics(t, res, perLayer, "bench.fig8_s", "bench.fig9_s", "bench.fig10_s", "bench.matchscale_s",
		"bench.verify_s", "sweep.busy_frac", "sweep.slowest_point_s", "go-runtime.mallocs", "nanopowder.reference_s")
	checkCPUShares(t, res)
}

// BENCHMARK.json lists the same metrics, units and directions as the
// program reports.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, tc := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", tc.name, len(tc.got), len(tc.want))
			continue
		}
		for i := range tc.want {
			if tc.got[i] != tc.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", tc.name, i, tc.got[i], tc.want[i])
			}
		}
	}
}
