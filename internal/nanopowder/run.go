package nanopowder

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Impl selects the coefficient-distribution implementation of §V-D.
type Impl int

const (
	// Baseline uses plain MPI_Isend / MPI_Recv + clEnqueueWriteBuffer.
	Baseline Impl = iota
	// CLMPI uses MPI_Isend with the CLMem datatype and
	// clEnqueueRecvBuffer, enabling the pipelined transfer.
	CLMPI
)

func (im Impl) String() string {
	if im == Baseline {
		return "baseline"
	}
	return "clMPI"
}

// message tags.
const (
	tagCoeff   = 1
	tagSource  = 2
	tagSummary = 3
)

// Config describes one nanopowder run.
type Config struct {
	System cluster.System
	Nodes  int
	Impl   Impl
	Params Params
	// Verify runs the physics: coefficient construction, the coagulation
	// kernels and the bytes they travel in, with Result.MassPerStep and the
	// final populations of every cell (Result.Final) returned. Without it
	// the run is timing-only: every command charges the same virtual time
	// on phantom buffers (cl.NewTimingContext) and computes nothing,
	// because no timing reads data.
	Verify bool
}

// Result reports a run's outcome.
type Result struct {
	Elapsed  time.Duration // whole simulation, virtual time
	StepTime time.Duration // Elapsed / Steps
	// SerialTime is the master's per-run total in the non-parallel phase;
	// DistCompute is the remainder (distribution + coagulation + gather).
	SerialTime  time.Duration
	DistCompute time.Duration
	// MassPerStep is the global particle mass after each step, set only
	// when Config.Verify is (nil otherwise).
	MassPerStep []float64
	// Final holds every cell's population when Config.Verify is set.
	Final [][]float64
}

// Run executes one configuration on a fresh simulated cluster.
func Run(cfg Config) (*Result, error) {
	p := cfg.Params
	if err := p.validate(cfg.Nodes); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	clus := cluster.New(eng, cfg.System, cfg.Nodes)
	world := mpi.NewWorld(clus)
	fab := clmpi.New(world, clmpi.Options{})
	cpn := p.Cells / cfg.Nodes // cells per node
	cellB := p.cellCoeffBytes()
	newContext := cl.NewTimingContext
	res := &Result{}
	var pairs *pairTable
	if cfg.Verify {
		newContext = cl.NewContext
		pairs = newPairTable(p.Bins)
		res.MassPerStep = make([]float64, p.Steps)
		res.Final = make([][]float64, p.Cells)
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}

	world.LaunchRanks("nano", func(hp *sim.Proc, ep *mpi.Endpoint) {
		me := ep.Rank()
		ctx := newContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("nano%d", me))
		rt := fab.Attach(ctx, ep)
		q := ctx.NewQueue(fmt.Sprintf("nano.q%d", me))

		coefBuf, err := ctx.CreateBuffer("coeffs", int64(cpn)*cellB)
		if err != nil {
			fail(err)
			return
		}
		kernel := &cl.Kernel{
			Name:  "coagulation",
			FLOPs: func([]any) float64 { return p.coagFLOPsPerCell() * float64(cpn) },
		}
		// Every rank owns cells [me*cpn, (me+1)*cpn). The master keeps
		// the scalar fields and all coefficient construction. A
		// timing-only run has no model: m, myCells and mySrc stay nil.
		var m *model
		var myCells [][]float64
		var mySrc []float64
		if cfg.Verify {
			m = newModel(p, pairs)
			myCells = make([][]float64, cpn)
			for i := range myCells {
				myCells[i] = m.state[me*cpn+i].n
			}
			mySrc = make([]float64, cpn)
			kernel.Work = func([]any) error {
				for i := 0; i < cpn; i++ {
					coagulateCell(p, myCells[i], coefBuf.Bytes()[int64(i)*cellB:], mySrc[i])
				}
				return nil
			}
		}

		if me == 0 {
			err = runMaster(hp, ep, world.Comm(), rt, q, m, cfg, cpn, coefBuf, mySrc, kernel, res)
		} else {
			err = runWorker(hp, ep, world.Comm(), rt, q, p, cfg.Impl, cpn, coefBuf, mySrc, kernel, myCells)
		}
		if err != nil {
			fail(err)
			return
		}
		if cfg.Verify {
			for i := 0; i < cpn; i++ {
				res.Final[me*cpn+i] = append([]float64(nil), myCells[i]...)
			}
		}
	})
	simErr := eng.Run()
	if firstErr != nil {
		return nil, firstErr // root cause, not the stranded-rank deadlock
	}
	if simErr != nil {
		return nil, fmt.Errorf("nanopowder: simulation failed: %w", simErr)
	}
	res.StepTime = res.Elapsed / time.Duration(p.Steps)
	return res, nil
}

// runMaster is rank 0: serial phenomena, coefficient construction and
// distribution, its own share of the coagulation, and the summary gather.
func runMaster(hp *sim.Proc, ep *mpi.Endpoint, comm *mpi.Comm, rt *clmpi.Runtime, q *cl.CommandQueue,
	m *model, cfg Config, cpn int, coefBuf *cl.Buffer, mySrc []float64, kernel *cl.Kernel, res *Result) error {

	p := cfg.Params
	cellB := p.cellCoeffBytes()
	nodes := cfg.Nodes
	cpu := ep.Node().Sys.CPU
	ctx := q.Context()
	numerics := !ctx.TimingOnly()
	// Wire buffers for each worker's slice, reused across steps.
	coeffWire := make([][]byte, nodes)
	srcWire := make([][]byte, nodes)
	summaries := make([][]byte, nodes)
	for r := 1; r < nodes; r++ {
		coeffWire[r] = ctx.HostBuffer(int(int64(cpn) * cellB))
		srcWire[r] = ctx.HostBuffer(cpn * 8)
		summaries[r] = ctx.HostBuffer(cpn * 8)
	}

	start := hp.Now()
	for step := 0; step < p.Steps; step++ {
		// Serial phase: the non-parallelized phenomena run on one host
		// thread (§V-D); the cost model charges the modelled work, the
		// real computation constructs this step's sources/coefficients.
		t0 := hp.Now()
		var src []float64
		if numerics {
			src = m.advanceScalars(step)
			for r := 1; r < nodes; r++ {
				for i := 0; i < cpn; i++ {
					c := r*cpn + i
					m.buildCoeffs(c, coeffWire[r][int64(i)*cellB:])
					binary.LittleEndian.PutUint64(srcWire[r][i*8:], math.Float64bits(src[c]))
				}
			}
		}
		// seconds = FLOPs / (GFLOPS·1e9)  →  nanoseconds = FLOPs / GFLOPS.
		hp.Sleep(time.Duration(p.serialFLOPs() / cpu.GFLOPS))
		res.SerialTime += hp.Now().Sub(t0)

		t1 := hp.Now()
		// Distribute coefficient slices to the workers.
		var reqs []*mpi.Request
		dtype := mpi.Bytes
		if cfg.Impl == CLMPI {
			dtype = mpi.CLMem
		}
		for r := 1; r < nodes; r++ {
			sreq, err := ep.Isend(hp, coeffWire[r], r, tagCoeff, dtype, comm)
			if err != nil {
				return err
			}
			s2, err := ep.Isend(hp, srcWire[r], r, tagSource, mpi.Bytes, comm)
			if err != nil {
				return err
			}
			reqs = append(reqs, sreq, s2)
		}
		// The master's own cells: local coefficient upload plus kernel.
		if numerics {
			for i := 0; i < cpn; i++ {
				m.buildCoeffs(i, coefBuf.Bytes()[int64(i)*cellB:])
				mySrc[i] = src[i]
			}
		}
		// Charge the local H2D for the master's slice.
		if _, err := q.Enqueue("h2d-own", nil, func(wp *sim.Proc) error {
			ep.Node().HostToDevice(wp, int64(cpn)*cellB, cluster.Pageable)
			return nil
		}); err != nil {
			return err
		}
		if _, err := q.EnqueueNDRangeKernel(kernel, nil, nil); err != nil {
			return err
		}
		if err := q.Finish(hp); err != nil {
			return err
		}
		if err := mpi.Waitall(hp, reqs...); err != nil {
			return err
		}
		// Gather the per-cell mass summaries.
		total := 0.0
		if numerics {
			for i := 0; i < cpn; i++ {
				total += mass(m.state[i].n)
			}
		}
		for r := 1; r < nodes; r++ {
			if _, err := ep.Recv(hp, summaries[r], r, tagSummary, mpi.Bytes, comm); err != nil {
				return err
			}
			if numerics {
				for i := 0; i < cpn; i++ {
					total += math.Float64frombits(binary.LittleEndian.Uint64(summaries[r][i*8:]))
				}
			}
		}
		if numerics {
			res.MassPerStep[step] = total
		}
		res.DistCompute += hp.Now().Sub(t1)
	}
	res.Elapsed = hp.Now().Sub(start)
	return nil
}

// runWorker is any rank > 0: receive coefficients, integrate, report.
func runWorker(hp *sim.Proc, ep *mpi.Endpoint, comm *mpi.Comm, rt *clmpi.Runtime, q *cl.CommandQueue,
	p Params, impl Impl, cpn int, coefBuf *cl.Buffer, mySrc []float64, kernel *cl.Kernel, myCells [][]float64) error {

	cellB := p.cellCoeffBytes()
	wireB := int64(cpn) * cellB
	ctx := q.Context()
	numerics := !ctx.TimingOnly()
	srcWire := ctx.HostBuffer(cpn * 8)
	summary := ctx.HostBuffer(cpn * 8)
	defer bytepool.Put(srcWire)
	defer bytepool.Put(summary)
	var hostCoef []byte // baseline staging: pooled, only the Baseline path needs it
	if impl == Baseline {
		hostCoef = ctx.HostBuffer(int(wireB))
		defer bytepool.Put(hostCoef)
	}
	for step := 0; step < p.Steps; step++ {
		if _, err := ep.Recv(hp, srcWire, 0, tagSource, mpi.Bytes, comm); err != nil {
			return err
		}
		if numerics {
			for i := 0; i < cpn; i++ {
				mySrc[i] = math.Float64frombits(binary.LittleEndian.Uint64(srcWire[i*8:]))
			}
		}
		switch impl {
		case Baseline:
			// Fig. 1 pattern: blocking receive into host memory, then a
			// serialized write to the device, then the kernel.
			if _, err := ep.Recv(hp, hostCoef, 0, tagCoeff, mpi.Bytes, comm); err != nil {
				return err
			}
			if _, err := q.EnqueueWriteBuffer(hp, coefBuf, true, 0, wireB, hostCoef, cluster.Pageable, nil); err != nil {
				return err
			}
			if _, err := q.EnqueueNDRangeKernel(kernel, nil, nil); err != nil {
				return err
			}
		case CLMPI:
			// §V-D: replacing MPI_Recv + clEnqueueWriteBuffer with
			// clEnqueueRecvBuffer turns the transfer into a pipelined
			// command; the kernel is gated on its event.
			evRecv, err := rt.EnqueueRecvBuffer(hp, q, coefBuf, false, 0, wireB, 0, tagCoeff, comm, nil)
			if err != nil {
				return err
			}
			if _, err := q.EnqueueNDRangeKernel(kernel, nil, []*cl.Event{evRecv}); err != nil {
				return err
			}
		}
		if err := q.Finish(hp); err != nil {
			return err
		}
		// Report per-cell masses for the global bookkeeping.
		if numerics {
			for i := 0; i < cpn; i++ {
				binary.LittleEndian.PutUint64(summary[i*8:], math.Float64bits(mass(myCells[i])))
			}
		}
		if err := ep.Send(hp, summary, 0, tagSummary, mpi.Bytes, comm); err != nil {
			return err
		}
	}
	return nil
}
