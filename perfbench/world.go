package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The world workload is BenchmarkPDES's dense wildcard exchange on RICC at
// one rank count, simulated once on the serial engine and once on a 4-way
// partitioned engine with nproc workers. It is driven through the public
// sim/mpi/cluster constructors (bench.MatchScalePoint hides its engine), and
// checked against bench.MatchScalePoint for the same parameters.

// worldConfig is the exchange the workload simulates.
type worldConfig struct {
	ranks, outstanding, wildPct, rounds, parts int
}

// defaultWorld is BenchmarkPDES's RICC cell.
func defaultWorld() worldConfig {
	return worldConfig{ranks: 2000, outstanding: 8, wildPct: 25, rounds: 1, parts: 4}
}

// worldOutcome is what one engine run produced.
type worldOutcome struct {
	simMS            float64
	messages         int
	postedHW, unexHW int
	procs            int
	timers           uint64
	// Partitioned engine scheduling counters (zero for serial).
	windows, stalls, adverts uint64
}

// exchangeBody is the dense exchange's per-rank program: each rank keeps
// `outstanding` receives posted (a wildPct share through AnySource/AnyTag)
// and `outstanding` sends in flight, message k of rank r going to rank
// (r+1+k)%n with tag k, then a barrier, for `rounds` rounds. It is the
// program bench.MatchScalePoint runs. recvd[rank] counts completed receives;
// errs[rank] keeps the first MPI error.
func exchangeBody(c worldConfig, recvd []int, errs []error) func(p *sim.Proc, ep *mpi.Endpoint) {
	const msgBytes = 256
	out := min(c.outstanding, c.ranks-1)
	return func(p *sim.Proc, ep *mpi.Endpoint) {
		comm := ep.World().Comm()
		n, r := ep.Size(), ep.Rank()
		bufs := make([][]byte, out)
		for j := range bufs {
			bufs[j] = make([]byte, msgBytes)
		}
		payload := make([]byte, msgBytes)
		fail := func(err error) { errs[r] = err }
		for round := 0; round < c.rounds; round++ {
			reqs := make([]*mpi.Request, 0, 2*out)
			for j := 0; j < out; j++ {
				src, tag := ((r-1-j)%n+n)%n, j
				if j*100 < out*c.wildPct {
					if j%2 == 0 {
						src = mpi.AnySource
					} else {
						tag = mpi.AnyTag
					}
				}
				req, err := ep.Irecv(p, bufs[j], src, tag, mpi.Bytes, comm)
				if err != nil {
					fail(err)
					return
				}
				reqs = append(reqs, req)
			}
			for j := 0; j < out; j++ {
				req, err := ep.Isend(p, payload, (r+1+j)%n, j, mpi.Bytes, comm)
				if err != nil {
					fail(err)
					return
				}
				reqs = append(reqs, req)
			}
			if err := mpi.Waitall(p, reqs...); err != nil {
				fail(err)
				return
			}
			recvd[r] += out
			if err := ep.Barrier(p, comm); err != nil {
				fail(err)
				return
			}
		}
	}
}

// worldSystem is RICC sized to the world (the preset's node guard models
// the physical testbed; the exchange is about worlds beyond it).
func worldSystem(c worldConfig) cluster.System {
	sys := cluster.RICC()
	if sys.MaxNodes < c.ranks {
		sys.MaxNodes = c.ranks
	}
	return sys
}

// preparedWorld is a world built and launched, ready to run.
type preparedWorld struct {
	recvd []int
	errs  []error
	run   func() error
	done  func(*worldOutcome)
}

func (w *preparedWorld) finish() (worldOutcome, error) {
	var out worldOutcome
	w.done(&out)
	for _, err := range w.errs {
		if err != nil {
			return out, err
		}
	}
	for _, n := range w.recvd {
		out.messages += n
	}
	return out, nil
}

// prepareSerial builds the serial engine, cluster and world and launches
// the ranks.
func prepareSerial(c worldConfig) *preparedWorld {
	w := &preparedWorld{recvd: make([]int, c.ranks), errs: make([]error, c.ranks)}
	eng := sim.NewEngine()
	world := mpi.NewWorld(cluster.New(eng, worldSystem(c), c.ranks))
	world.LaunchRanks("matchscale", exchangeBody(c, w.recvd, w.errs))
	w.run = eng.Run
	w.done = func(o *worldOutcome) {
		o.simMS = eng.Now().Seconds() * 1e3
		st := eng.Stats()
		o.procs, o.timers = st.Procs, st.Timers
		for r := 0; r < c.ranks; r++ {
			p, u := world.Comm().MatchQueueHighWater(r)
			o.postedHW, o.unexHW = max(o.postedHW, p), max(o.unexHW, u)
		}
	}
	return w
}

// preparePart builds the partitioned engine and world and launches the
// ranks; sm, when non-nil, observes the engine's host time.
func preparePart(c worldConfig, workers int, sm *obs.Sim) *preparedWorld {
	w := &preparedWorld{recvd: make([]int, c.ranks), errs: make([]error, c.ranks)}
	sys := worldSystem(c)
	pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, c.ranks, c.parts))
	pw := mpi.NewPartWorld(pe, sys, c.ranks)
	if sm != nil {
		pw.AttachObs(obs.NewPDES(sm, pe.Parts()))
	}
	pw.LaunchRanks("matchscale", exchangeBody(c, w.recvd, w.errs))
	w.run = func() error { return pw.Run(workers) }
	w.done = func(o *worldOutcome) {
		o.simMS = pe.Now().Seconds() * 1e3
		for i := 0; i < pe.Parts(); i++ {
			st := pe.Shard(i).Stats()
			o.procs += st.Procs
			o.timers += st.Timers
		}
		o.windows, o.stalls, o.adverts = pe.Windows(), pe.Stalls(), pe.Adverts()
		for r := 0; r < c.ranks; r++ {
			p, u := pw.MatchQueueHighWater(r)
			o.postedHW, o.unexHW = max(o.postedHW, p), max(o.unexHW, u)
		}
	}
	return w
}

// engineRun is one engine's run of a world.
type engineRun struct {
	wall, cpu float64 // seconds
	rt        rtDelta
	out       worldOutcome
	ok        bool // finished, every rank error-free, every message received
}

// worldSample is one iteration: both engines on the same world.
type worldSample struct {
	setup        float64 // both builds and launches, seconds
	serial, part engineRun
}

// worldIteration runs one world on both engines, checking each run. Each
// engine run starts after a forced GC cycle. When t is non-nil (a traced
// iteration), each engine run is a profiled window of t, so the CPU shares
// and the Go runtime bill cover the engine runs, as cpu_s does.
func worldIteration(c worldConfig, workers int, sm *obs.Sim, tr *tracer, t *traceRun, r *report) (worldSample, error) {
	var s worldSample
	run := func(name string, prep func() *preparedWorld) (e engineRun, _ error) {
		var w *preparedWorld
		start := time.Now()
		_ = tr.do(0, "cluster", "world.setup."+name, func(int) error { w = prep(); return nil })
		s.setup += time.Since(start).Seconds()
		if t == nil {
			runtime.GC()
		} else if err := t.open(); err != nil {
			return e, err
		}
		m := startMeter()
		err := tr.do(0, "sim", "world.run."+name, func(int) error { return w.run() })
		e.wall, e.cpu = m.stop()
		if t != nil {
			var cerr error
			if e.rt, cerr = t.close(); cerr != nil {
				return e, cerr
			}
		}
		if err != nil {
			r.fail(fmt.Errorf("world %s: %w", name, err))
			return e, nil
		}
		if e.out, err = w.finish(); err != nil {
			r.fail(fmt.Errorf("world %s rank error: %w", name, err))
			return e, nil
		}
		want := c.ranks * min(c.outstanding, c.ranks-1) * c.rounds
		e.ok = e.out.messages == want
		r.check(e.ok, "world %s: %d messages completed, want ranks×outstanding×rounds = %d", name, e.out.messages, want)
		return e, nil
	}
	var err error
	if s.serial, err = run("serial", func() *preparedWorld { return prepareSerial(c) }); err != nil {
		return s, err
	}
	s.part, err = run("part", func() *preparedWorld { return preparePart(c, workers, sm) })
	return s, err
}

// checkAgainstBench compares the public-API world's virtual-time results
// with bench.MatchScalePoint's for the same parameters, on both engines.
func checkAgainstBench(c worldConfig, workers int, s worldSample, r *report) {
	sys := cluster.RICC()
	for _, e := range []struct {
		name  string
		parts int
		run   engineRun
	}{{"serial", 0, s.serial}, {"part", c.parts, s.part}} {
		if !e.run.ok {
			continue
		}
		got := e.run.out
		pt, err := bench.MatchScalePoint(sys, c.ranks, c.outstanding, c.wildPct, c.rounds, e.parts, workers)
		if err != nil {
			r.fail(fmt.Errorf("bench.MatchScalePoint %s: %w", e.name, err))
			continue
		}
		r.check(pt.SimMS == got.simMS && pt.MaxPostedHW == got.postedHW &&
			pt.MaxUnexpectedHW == got.unexHW && pt.Messages == got.messages,
			"world %s: public-API world (sim %.6f ms, posted hw %d, unexpected hw %d, %d msgs) differs from bench.MatchScalePoint (%.6f ms, %d, %d, %d)",
			e.name, got.simMS, got.postedHW, got.unexHW, got.messages, pt.SimMS, pt.MaxPostedHW, pt.MaxUnexpectedHW, pt.Messages)
	}
}

// worldTimes collects the timings of the samples whose runs both passed.
func worldTimes(samples []worldSample) (wall, cpu, serialRate, partRate, setup []float64) {
	for _, s := range samples {
		setup = append(setup, s.setup)
		if !s.serial.ok || !s.part.ok {
			continue
		}
		wall = append(wall, s.serial.wall+s.part.wall)
		cpu = append(cpu, s.serial.cpu+s.part.cpu)
		serialRate = append(serialRate, float64(s.serial.out.messages)/s.serial.wall)
		partRate = append(partRate, float64(s.part.out.messages)/s.part.wall)
	}
	return
}

// setWorldFigures reports the untraced samples' end-to-end metrics and
// workload figures.
func setWorldFigures(r *report, samples []worldSample) {
	wall, cpu, sRate, pRate, setup := worldTimes(samples)
	last := samples[len(samples)-1]
	n := fmt.Sprintf("n=%d", len(wall))
	r.set("setup_s", median(setup), fmt.Sprintf("median of %d set-ups (build + launch, both engines)", len(setup)))
	r.set("wall_s", median(wall), summarize(wall).String())
	r.set("cpu_s", median(cpu), summarize(cpu).String())
	r.set("serial_msgs_per_s", median(sRate), n)
	r.set("part_msgs_per_s", median(pRate), n)
	if ser, par := last.serial.out.simMS, last.part.out.simMS; ser > 0 {
		r.set("shard_skew_pct", (par-ser)/ser*100,
			fmt.Sprintf("partitioned %.6f ms vs serial %.6f ms simulated", par, ser))
	}
}

func runWorld(o options, r *report) error {
	c := defaultWorld()
	if o.quick {
		c.ranks = 200
	}
	workers := o.workers
	until := time.Now().Add(o.seconds)

	if !o.trace {
		var samples []worldSample
		for first := true; first || time.Now().Before(until); first = false {
			s, err := worldIteration(c, workers, nil, nil, nil, r)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		setWorldFigures(r, samples)
		r.set("max_rss_mb", maxRSSMB())
		checkAgainstBench(c, workers, samples[len(samples)-1], r)
		return nil
	}

	// Traced: alternate an untraced world (the overhead baseline) and a
	// traced one whose engine runs are profiled windows, with an obs.Sim on
	// the partitioned engine.
	tr := newTracer(fmt.Sprintf("world/seed=%d", o.seed))
	reg := obs.NewRegistry()
	sm := obs.NewSim(reg, nil)
	t := newTraceRun(tr)
	var untraced, tracedRuns []worldSample
	for first := true; first || time.Now().Before(until); first = false {
		u, err := worldIteration(c, workers, nil, nil, nil, r)
		if err != nil {
			return err
		}
		traced, err := worldIteration(c, workers, sm, tr, t, r)
		if err != nil {
			return err
		}
		untraced, tracedRuns = append(untraced, u), append(tracedRuns, traced)
	}
	setWorldFigures(r, untraced)
	uWall, _, _, _, _ := worldTimes(untraced)
	tWall, _, _, _, _ := worldTimes(tracedRuns)
	r.set("trace_overhead_frac", median(tWall)/median(uWall)-1,
		fmt.Sprintf("traced %.4f s / untraced %.4f s per world pair, %d pairs", median(tWall), median(uWall), len(tWall)))

	last := tracedRuns[len(tracedRuns)-1]
	checkAgainstBench(c, workers, last, r)
	var sRT, pRT []rtDelta
	var nsPerEvent []float64
	for _, s := range tracedRuns {
		sRT, pRT = append(sRT, s.serial.rt), append(pRT, s.part.rt)
		if s.serial.out.timers > 0 {
			nsPerEvent = append(nsPerEvent, s.serial.wall*1e9/float64(s.serial.out.timers))
		}
	}
	ser, par := last.serial.out, last.part.out
	note := fmt.Sprintf("median of %d traced worlds", len(tracedRuns))
	r.setRuntime("serial_", medianRT(sRT), 1, note)
	r.setRuntime("part_", medianRT(pRT), 1, note)
	r.set("sim.procs", float64(ser.procs), "serial engine")
	r.set("sim.timer_events", float64(ser.timers), "serial engine")
	r.set("sim.host_ns_per_event", median(nsPerEvent), note)
	r.set("sim.sim_ms_serial", ser.simMS)
	r.set("sim.sim_ms_part", par.simMS)
	k := float64(len(tracedRuns))
	r.set("sim.part_windows", float64(par.windows), "last traced world")
	r.set("sim.part_stalls", float64(par.stalls), "last traced world")
	r.set("sim.part_adverts", float64(par.adverts), "last traced world")
	r.set("sim.part_simulate_s", reg.CounterValue("clmpi_pdes_simulate_seconds_total")/k, "per world, "+note)
	r.set("sim.part_stall_s", reg.CounterValue("clmpi_pdes_stall_seconds_total")/k, "per world, "+note)
	r.set("sim.part_merge_s", reg.CounterValue("clmpi_pdes_merge_seconds_total")/k, "per world, "+note)
	r.set("sim.part_advert_s", reg.CounterValue("clmpi_pdes_advert_seconds_total")/k, "per world, "+note)
	r.set("sim.part_occupancy", reg.GaugeValue("clmpi_pdes_worker_occupancy"), fmt.Sprintf("pooled over %d traced worlds", len(tracedRuns)))
	r.set("mpi.messages", float64(ser.messages), "per world")
	r.set("mpi.posted_hw", float64(ser.postedHW), "serial engine")
	r.set("mpi.unexpected_hw", float64(ser.unexHW), "serial engine")
	return finishTrace(o, r, t, k)
}

// medianRT is the per-field median of runtime deltas (the GC CPU share as
// the median of the runs' shares).
func medianRT(ds []rtDelta) rtDelta {
	if len(ds) == 0 {
		return rtDelta{}
	}
	var m, a, g, f []float64
	for _, d := range ds {
		m, a, g, f = append(m, d.mallocs), append(a, d.allocMB), append(g, d.gcCycles), append(f, d.gcCPUFrac())
	}
	return rtDelta{mallocs: median(m), allocMB: median(a), gcCycles: median(g), gcCPU: median(f), cpu: 1}
}
