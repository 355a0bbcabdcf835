package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
	"repro/internal/sweep"
)

// The paper workload is the default clmpi-repro evaluation: Table I,
// Fig. 4, Fig. 8 and Fig. 9 (size M) on cichlid and ricc, Fig. 10 with the
// default parameters, the matching-scaling sweep at 64-512 ranks, and the
// bitwise verification against the host references. Untraced, each section
// goes through the same public call cmd/clmpi-repro makes. Traced, each
// section is replayed point by point through the per-point functions those
// section functions use, so every point gets its own span.

// paperGainTarget is the paper's reported clMPI over hand-optimized gain
// at 4 Cichlid nodes (Fig. 9a), in percent.
const paperGainTarget = 14.0

// paperGainBand is the largest |reproduced - paper| gain error, in
// percentage points, that still counts as reproducing Fig. 9a.
const paperGainBand = 3.0

// paperConfig sizes the evaluation.
type paperConfig struct {
	systems     []string
	himenoSize  himeno.Size
	himenoIters int
	params      nanopowder.Params
	matchRanks  []int
	// ricc9Nodes overrides the Fig. 9 node grid on systems with more than
	// 32 nodes (the small S grid cannot feed 64 ranks); nil keeps it.
	ricc9Nodes []int
	// gainBand is the Fig. 9a gain check's band in pp; 0 skips the check
	// (only size M reproduces the paper's gain).
	gainBand float64
}

// defaultPaper is clmpi-repro with no flags.
func defaultPaper() paperConfig {
	return paperConfig{
		systems:     []string{"cichlid", "ricc"},
		himenoSize:  himeno.SizeM,
		himenoIters: 6,
		params:      nanopowder.DefaultParams(),
		matchRanks:  []int{64, 128, 256, 512},
		gainBand:    paperGainBand,
	}
}

// quickPaper is clmpi-repro -quick, used by the smoke test.
func quickPaper() paperConfig {
	return paperConfig{
		systems:     []string{"cichlid", "ricc"},
		himenoSize:  himeno.SizeS,
		himenoIters: 3,
		params:      nanopowder.Params{Cells: 40, Bins: 96, Steps: 2, SubSteps: 120},
		matchRanks:  []int{64, 128},
		ricc9Nodes:  []int{1, 2, 4, 8, 16, 32},
	}
}

// paperResult holds what one evaluation produced that the checks read.
type paperResult struct {
	// fig8 maps system -> implementation -> message bytes -> MB/s, parsed
	// from the rendered table (both paths render the same table).
	fig8 map[string]map[string]map[int64]float64
	// gain is clMPI GFLOPS over hand-optimized GFLOPS at 4 Cichlid nodes.
	gain float64
	// verify maps "himeno <impl>" / "nanopowder <impl>" to a bitwise match.
	verify map[string]bool
	// tables holds the rendered deterministic sections (Fig. 8, 9, 10 and
	// the verification), for comparing a traced replay to an untraced run.
	tables strings.Builder
	// sections is each section's wall time in seconds.
	sections map[string]float64
}

// paperRun executes evaluations. tr is nil for an untraced run.
type paperRun struct {
	cfg     paperConfig
	systems []cluster.System
	tr      *tracer
	// The host references the verification compares against.
	wantGrid  []float32
	wantCells [][]float64
}

// verifyParams is the nanopowder size of the verification section.
var verifyParams = nanopowder.Params{Cells: 8, Bins: 96, Steps: 2, SubSteps: 50}

// setupPaper resolves the presets the evaluation sweeps and computes the
// host references its verification compares against.
func setupPaper(cfg paperConfig) (*paperRun, error) {
	p := &paperRun{cfg: cfg}
	for _, name := range cfg.systems {
		sys, err := cluster.Resolve(name)
		if err != nil {
			return nil, err
		}
		p.systems = append(p.systems, sys)
	}
	p.wantGrid, _ = himeno.Reference(himeno.SizeXS, cfg.himenoIters, himeno.ScrambledInit)
	p.wantCells = nanopowder.Reference(verifyParams)
	return p, nil
}

// section is one part of the evaluation, in report order.
type section struct {
	name string
	run  func(p *paperRun, parent int, res *paperResult) error
}

var paperSections = []section{
	{"table1", (*paperRun).table1}, {"fig4", (*paperRun).fig4}, {"fig8", (*paperRun).fig8},
	{"fig9", (*paperRun).fig9}, {"fig10", (*paperRun).fig10}, {"matchscale", (*paperRun).matchscale},
	{"verify", (*paperRun).verify},
}

func newPaperResult() *paperResult {
	return &paperResult{
		fig8:     map[string]map[string]map[int64]float64{},
		verify:   map[string]bool{},
		sections: map[string]float64{},
		gain:     math.NaN(),
	}
}

// runSection runs one section into res, inside a span when traced.
func (p *paperRun) runSection(sec section, res *paperResult) error {
	start := time.Now()
	err := p.tr.do(0, "bench", "bench."+sec.name, func(id int) error { return sec.run(p, id, res) })
	res.sections[sec.name] = time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("paper %s: %w", sec.name, err)
	}
	return nil
}

// iterate runs one whole evaluation.
func (p *paperRun) iterate() (*paperResult, error) {
	res := newPaperResult()
	for _, sec := range paperSections {
		if err := p.runSection(sec, res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// point wraps one per-point call in a span under a section.
func (p *paperRun) point(parent int, layer, name string, fn func() error) error {
	return p.tr.do(parent, layer, name, func(int) error { return fn() })
}

func (p *paperRun) table1(parent int, _ *paperResult) error {
	return p.point(parent, "cluster", "bench.Table1", func() error {
		if bench.Table1() == "" {
			return fmt.Errorf("empty Table I")
		}
		return nil
	})
}

var fig4Panels = []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI}

func (p *paperRun) fig4(parent int, _ *paperResult) error {
	_, err := sweep.Map(len(fig4Panels), func(i int) (string, error) {
		var out string
		err := p.point(parent, "himeno", "bench.Fig4", func() error {
			var err error
			out, err = bench.Fig4(fig4Panels[i], himeno.SizeS, 2)
			return err
		})
		return out, err
	})
	return err
}

func (p *paperRun) fig8(parent int, res *paperResult) error {
	for _, sys := range p.systems {
		var headers []string
		var rows [][]string
		if p.tr == nil {
			var err error
			if headers, rows, err = bench.Fig8(sys); err != nil {
				return err
			}
		} else {
			// The replay of bench.Fig8: the same flat grid over the sweep
			// pool, one MeasureP2P per point, the same table.
			impls, sizes := bench.Fig8Impls(), bench.Fig8Sizes()
			bws, err := sweep.Map(len(sizes)*len(impls), func(i int) (float64, error) {
				size, im := sizes[i/len(impls)], impls[i%len(impls)]
				var bw float64
				err := p.point(parent, "xfer", "bench.MeasureP2P", func() error {
					var err error
					bw, err = bench.MeasureP2P(sys, im.St, im.Block, size)
					return err
				})
				return bw, err
			})
			if err != nil {
				return err
			}
			headers = []string{"msg bytes"}
			for _, im := range impls {
				headers = append(headers, im.Name+" MB/s")
			}
			for si, size := range sizes {
				row := []string{fmt.Sprintf("%d", size)}
				for ii := range impls {
					row = append(row, fmt.Sprintf("%.1f", bws[si*len(impls)+ii]/1e6))
				}
				rows = append(rows, row)
			}
		}
		table, err := parseFig8(headers, rows)
		if err != nil {
			return err
		}
		res.fig8[strings.ToLower(sys.Name)] = table
		res.tables.WriteString(bench.FormatTable(headers, rows))
	}
	return nil
}

// parseFig8 reads a Fig. 8 table back into numbers.
func parseFig8(headers []string, rows [][]string) (map[string]map[int64]float64, error) {
	out := map[string]map[int64]float64{}
	for _, row := range rows {
		if len(row) != len(headers) {
			return nil, fmt.Errorf("fig8 row has %d cells, want %d", len(row), len(headers))
		}
		size, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fig8 size %q: %w", row[0], err)
		}
		for i := 1; i < len(row); i++ {
			name := strings.TrimSuffix(headers[i], " MB/s")
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				return nil, fmt.Errorf("fig8 cell %q: %w", row[i], err)
			}
			if out[name] == nil {
				out[name] = map[int64]float64{}
			}
			out[name][size] = v
		}
	}
	return out, nil
}

var fig9Impls = []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI}

func (p *paperRun) fig9(parent int, res *paperResult) error {
	for _, sys := range p.systems {
		nodes := bench.Fig9Nodes(sys)
		if p.cfg.ricc9Nodes != nil && sys.MaxNodes > 32 {
			nodes = p.cfg.ricc9Nodes
		}
		var points []bench.Fig9Point
		if p.tr == nil {
			var err error
			points, err = bench.Fig9Sweep(sys, p.cfg.himenoSize, p.cfg.himenoIters, fig9Impls, nodes)
			if err != nil {
				return err
			}
		} else {
			var err error
			points, err = sweep.Map(len(nodes)*len(fig9Impls), func(i int) (bench.Fig9Point, error) {
				n, impl := nodes[i/len(fig9Impls)], fig9Impls[i%len(fig9Impls)]
				var pt bench.Fig9Point
				err := p.point(parent, "himeno", "himeno.Run", func() error {
					r, err := himeno.Run(himeno.Config{
						System: sys, Nodes: n, Size: p.cfg.himenoSize, Iters: p.cfg.himenoIters,
						Impl: impl, Mode: himeno.OfficialInit,
					})
					if err != nil {
						return err
					}
					pt = bench.Fig9Point{Nodes: n, Impl: impl, GFLOPS: r.GFLOPS}
					if impl == himeno.Serial {
						pt.Ratio = -1
						if r.CommTime > 0 {
							pt.Ratio = r.CompTime.Seconds() / r.CommTime.Seconds()
						}
					}
					return nil
				})
				return pt, err
			})
			if err != nil {
				return err
			}
		}
		if strings.EqualFold(sys.Name, "cichlid") {
			var hand, cl float64
			for _, pt := range points {
				if pt.Nodes == 4 && pt.Impl == himeno.HandOpt {
					hand = pt.GFLOPS
				}
				if pt.Nodes == 4 && pt.Impl == himeno.CLMPI {
					cl = pt.GFLOPS
				}
			}
			if hand > 0 {
				res.gain = cl / hand
			}
		}
		res.tables.WriteString(bench.FormatTable(bench.Fig9Table(points)))
	}
	return nil
}

func (p *paperRun) fig10(parent int, res *paperResult) error {
	var points []bench.Fig10Point
	if p.tr == nil {
		var err error
		if points, err = bench.Fig10(p.cfg.params); err != nil {
			return err
		}
	} else {
		sys := cluster.RICC()
		var nodes []int
		for _, n := range bench.Fig10Nodes() {
			if sys.MaxNodes == 0 || n <= sys.MaxNodes {
				nodes = append(nodes, n)
			}
		}
		impls := []nanopowder.Impl{nanopowder.Baseline, nanopowder.CLMPI}
		var err error
		points, err = sweep.Map(len(nodes)*len(impls), func(i int) (bench.Fig10Point, error) {
			n, impl := nodes[i/len(impls)], impls[i%len(impls)]
			var pt bench.Fig10Point
			err := p.point(parent, "nanopowder", "nanopowder.Run", func() error {
				r, err := nanopowder.Run(nanopowder.Config{System: sys, Nodes: n, Impl: impl, Params: p.cfg.params})
				if err != nil {
					return err
				}
				pt = bench.Fig10Point{Nodes: n, Impl: impl, StepTime: r.StepTime}
				return nil
			})
			return pt, err
		})
		if err != nil {
			return err
		}
		var base time.Duration
		for _, pt := range points {
			if pt.Nodes == 1 && pt.Impl == nanopowder.Baseline {
				base = pt.StepTime
			}
		}
		for i := range points {
			points[i].Speedup = base.Seconds() / points[i].StepTime.Seconds()
		}
	}
	res.tables.WriteString(bench.FormatTable(bench.Fig10Table(points)))
	return nil
}

func (p *paperRun) matchscale(parent int, _ *paperResult) error {
	ricc := cluster.RICC()
	var points []bench.MatchPoint
	if p.tr == nil {
		var err error
		if points, err = bench.MatchScalePartitionedObs(ricc, p.cfg.matchRanks, 32, 25, 2, 0, 0, nil); err != nil {
			return err
		}
	} else {
		var err error
		points, err = sweep.Map(len(p.cfg.matchRanks), func(i int) (bench.MatchPoint, error) {
			var pt bench.MatchPoint
			err := p.point(parent, "mpi", "bench.MatchScalePoint", func() error {
				var err error
				pt, err = bench.MatchScalePoint(ricc, p.cfg.matchRanks[i], 32, 25, 2, 0, 0)
				return err
			})
			return pt, err
		})
		if err != nil {
			return err
		}
	}
	// The host-ms column is wall clock; the rendered table is not compared.
	_ = bench.FormatTable(bench.MatchScaleTable(points))
	return nil
}

var verifyHimeno = []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI, himeno.GPUAware, himeno.CLMPIOutOfOrder}
var verifyNano = []nanopowder.Impl{nanopowder.Baseline, nanopowder.CLMPI}

// verify is clmpi-repro's verification summary: every distributed
// implementation against the host reference, bit for bit. The references
// are computed at set-up.
func (p *paperRun) verify(parent int, res *paperResult) error {
	iters := p.cfg.himenoIters
	hOK, err := sweep.Map(len(verifyHimeno), func(i int) (bool, error) {
		ok := false
		err := p.point(parent, "himeno", "himeno.Run", func() error {
			r, err := himeno.Run(himeno.Config{
				System: cluster.Cichlid(), Nodes: 4, Size: himeno.SizeXS, Iters: iters,
				Impl: verifyHimeno[i], Mode: himeno.ScrambledInit, Verify: true,
			})
			if err != nil {
				return err
			}
			ok = gridsEqual(r.Grid, p.wantGrid)
			return nil
		})
		return ok, err
	})
	if err != nil {
		return err
	}
	nOK, err := sweep.Map(len(verifyNano), func(i int) (bool, error) {
		ok := false
		err := p.point(parent, "nanopowder", "nanopowder.Run", func() error {
			r, err := nanopowder.Run(nanopowder.Config{
				System: cluster.RICC(), Nodes: 4, Impl: verifyNano[i], Params: verifyParams, Verify: true,
			})
			if err != nil {
				return err
			}
			ok = cellsEqual(r.Final, p.wantCells)
			return nil
		})
		return ok, err
	})
	if err != nil {
		return err
	}
	for i, impl := range verifyHimeno {
		res.verify["himeno "+impl.String()] = hOK[i]
		fmt.Fprintf(&res.tables, "Himeno %-16s 4 nodes: bitwise match = %v\n", impl.String(), hOK[i])
	}
	for i, impl := range verifyNano {
		res.verify["nanopowder "+impl.String()] = nOK[i]
		fmt.Fprintf(&res.tables, "Nanopowder %-12s 4 nodes: bitwise match = %v\n", impl.String(), nOK[i])
	}
	return nil
}

func gridsEqual(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func cellsEqual(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			return false
		}
		for k := range want[c] {
			if got[c][k] != want[c][k] {
				return false
			}
		}
	}
	return true
}

// gainErrPP is |reproduced gain - the paper's 14 %| in percentage points.
func gainErrPP(gain float64) float64 { return math.Abs((gain-1)*100 - paperGainTarget) }

// checkPaper counts the evaluation's output checks: every bitwise
// verification, the Fig. 8 orderings the paper reports, and, when band > 0,
// the Fig. 9a gain inside the band.
func checkPaper(r *report, res *paperResult, band float64) {
	for _, impl := range verifyHimeno {
		name := "himeno " + impl.String()
		r.check(res.verify[name], "%s does not match the host reference bit for bit", name)
	}
	for _, impl := range verifyNano {
		name := "nanopowder " + impl.String()
		r.check(res.verify[name], "%s does not match the host reference bit for bit", name)
	}
	c := res.fig8["cichlid"]
	r.check(c != nil && c["mapped"][64<<10] > c["pinned"][64<<10],
		"fig8 cichlid: mapped (%v) not above pinned (%v) at 64 KiB", c["mapped"][64<<10], c["pinned"][64<<10])
	k := res.fig8["ricc"]
	for _, pip := range []string{"pipelined(1)", "pipelined(4)"} {
		r.check(k != nil && k[pip][64<<20] > k["pinned"][64<<20],
			"fig8 ricc: %s (%v) not above pinned (%v) at 64 MiB", pip, k[pip][64<<20], k["pinned"][64<<20])
	}
	if band > 0 {
		r.check(!math.IsNaN(res.gain) && gainErrPP(res.gain) <= band,
			"fig9a gain at 4 cichlid nodes %.4f is %.3g pp from the paper's %g%% (band %g pp)",
			res.gain, gainErrPP(res.gain), paperGainTarget, band)
	}
}

func runPaper(o options, r *report) error {
	cfg := defaultPaper()
	if o.quick {
		cfg = quickPaper()
	}
	// Set-up is repeated and the median kept.
	var setups []float64
	var p *paperRun
	for i := 0; i < 15; i++ {
		start := time.Now()
		var err error
		if p, err = setupPaper(cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))

	if !o.trace {
		// An evaluation starts only if one more, at the median time so
		// far, ends by the deadline; the first always runs.
		var walls, cpus, gains []float64
		deadline := time.Now().Add(o.seconds)
		for len(walls) == 0 || !time.Now().Add(time.Duration(median(walls)*float64(time.Second))).After(deadline) {
			runtime.GC()
			m := startMeter()
			res, err := p.iterate()
			wall, cpu := m.stop()
			if err != nil {
				r.fail(err)
			}
			checkPaper(r, res, p.cfg.gainBand)
			fmt.Fprintf(r.log, "evaluation: wall %.3f s, cpu %.3f s, sections %s\n", wall, cpu, formatSections(res.sections))
			walls, cpus = append(walls, wall), append(cpus, cpu)
			gains = append(gains, gainErrPP(res.gain))
		}
		r.set("wall_s", median(walls), summarize(walls).String())
		r.set("cpu_s", median(cpus), summarize(cpus).String())
		r.set("gain_err_pp", median(gains), fmt.Sprintf("band %g pp", paperGainBand))
		r.set("max_rss_mb", maxRSSMB())
		return nil
	}

	// Traced: one untraced evaluation warms the heap, as in an untraced
	// run. Then every section runs untraced (the overhead baseline) and is
	// replayed point by point with spans inside a profiled window, back to
	// back, in alternating order.
	warm, err := p.iterate()
	if err != nil {
		r.fail(err)
	}
	checkPaper(r, warm, p.cfg.gainBand)
	tr := newTracer(fmt.Sprintf("paper/seed=%d", o.seed))
	t := newTraceRun(tr)
	base, traced := newPaperResult(), newPaperResult()
	var uWall, tWall float64
	for i, sec := range paperSections {
		for half := 0; half < 2; half++ {
			runtime.GC()
			if (i+half)%2 == 0 {
				p.tr = nil
				if err := p.runSection(sec, base); err != nil {
					r.fail(err)
				}
				uWall += base.sections[sec.name]
				continue
			}
			p.tr = tr
			if err := t.open(); err != nil {
				return err
			}
			err := p.runSection(sec, traced)
			if _, cerr := t.close(); cerr != nil {
				return cerr
			}
			if err != nil {
				r.fail(err)
			}
			tWall += traced.sections[sec.name]
		}
	}
	checkPaper(r, base, p.cfg.gainBand)
	checkPaper(r, traced, p.cfg.gainBand)
	r.check(traced.tables.String() == base.tables.String(),
		"the traced replay's Fig. 8/9/10 tables or verification differ from the untraced run's")
	fmt.Fprintf(r.log, "untraced sections %s\ntraced sections   %s\n", formatSections(base.sections), formatSections(traced.sections))
	r.set("gain_err_pp", gainErrPP(base.gain), fmt.Sprintf("band %g pp", paperGainBand))
	r.set("trace_overhead_frac", tWall/uWall-1, fmt.Sprintf("traced %.3f s / untraced %.3f s, section by section", tWall, uWall))
	for _, sec := range paperSections {
		r.set("bench."+sec.name+"_s", traced.sections[sec.name])
	}
	// Sweep occupancy: the points' time over the pool's capacity during the
	// sections that fan points out.
	spans := tr.snapshot()
	secDur := map[int]float64{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name != "bench.table1" {
			secDur[s.ID] = float64(s.End-s.Start) / 1e9
		}
	}
	var busy, capacity, slowest float64
	for _, d := range secDur {
		capacity += d * float64(sweep.Workers())
	}
	for _, s := range spans {
		if _, ok := secDur[s.Parent]; ok {
			d := float64(s.End-s.Start) / 1e9
			busy += d
			slowest = max(slowest, d)
		}
	}
	if capacity > 0 {
		r.set("sweep.busy_frac", busy/capacity, fmt.Sprintf("%d workers", sweep.Workers()))
	}
	r.set("sweep.slowest_point_s", slowest)
	return finishTrace(o, r, t, 1)
}

func formatSections(s map[string]float64) string {
	var parts []string
	for _, sec := range paperSections {
		parts = append(parts, fmt.Sprintf("%s=%.2f", sec.name, s[sec.name]))
	}
	return strings.Join(parts, " ")
}
