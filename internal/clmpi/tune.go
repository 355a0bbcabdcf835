package clmpi

import (
	"fmt"
	"sort"

	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Measurement-based strategy selection. §V-B of the paper says "an
// automatic selection mechanism of the data transfer implementations can be
// adopted behind the interfaces"; the static Auto rule it describes (one-
// shot below a cutoff, pipelined above) is what Options{} gives. Tune goes
// further: it probes every strategy across a size sweep on a scratch copy
// of the target system — the moral equivalent of an installation-time
// calibration pass — and returns Options carrying a per-size selection
// table. The ablation study shows why this matters: the paper's static rule
// leaves ~2× on the table around 128 KiB on RICC.

// CutoffEntry selects a strategy for message sizes up to MaxBytes.
type CutoffEntry struct {
	MaxBytes int64
	St       Strategy // resolved: any strategy but Auto
	Block    int64    // pipeline block size (0 for one-shot strategies)
}

// tuneSizes is the calibration sweep.
func tuneSizes() []int64 {
	var out []int64
	for s := int64(16 << 10); s <= 64<<20; s *= 4 {
		out = append(out, s)
	}
	return out
}

// tuneCandidates are the strategies the calibration races.
func tuneCandidates() []struct {
	st    Strategy
	block int64
} {
	return []struct {
		st    Strategy
		block int64
	}{
		{Pinned, 0},
		{Mapped, 0},
		{Pipelined, 256 << 10},
		{Pipelined, 1 << 20},
		{Pipelined, 4 << 20},
		{Peer, 1 << 20},
	}
}

// Tune calibrates transfer strategy selection for a system by measuring
// every candidate on scratch two-node simulations, returning Options whose
// table Auto-selects the winner per message size. The returned options are
// deterministic for a given system, so all ranks of a job compute the same
// table — the protocol-agreement requirement holds.
func Tune(sys cluster.System) (Options, error) {
	var table []CutoffEntry
	sizes := tuneSizes()
	cands := tuneCandidates()
	if !sys.NIC.PeerDMA || sys.GPU.PeerBW <= 0 {
		// Systems without peer DMA cannot run the peer candidate.
		kept := cands[:0]
		for _, c := range cands {
			if c.st != Peer {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	// Every probe is an independent scratch simulation: run the whole
	// (size, candidate) grid through the sweep pool, then pick winners from
	// the indexed results in candidate order — the same argmax (first
	// strictly-better candidate wins ties) the serial loop computes.
	bws, err := sweep.Map(len(sizes)*len(cands), func(i int) (float64, error) {
		size, cand := sizes[i/len(cands)], cands[i%len(cands)]
		bw, err := probe(sys, cand.st, cand.block, size)
		if err != nil {
			return 0, fmt.Errorf("clmpi: tuning probe (%v, %d): %w", cand.st, size, err)
		}
		return bw, nil
	})
	if err != nil {
		return Options{}, err
	}
	for i, size := range sizes {
		var best CutoffEntry
		bestBW := -1.0
		for ci, cand := range cands {
			if bw := bws[i*len(cands)+ci]; bw > bestBW {
				bestBW = bw
				best = CutoffEntry{St: cand.st, Block: cand.block}
			}
		}
		// The bracket extends to the midpoint of the next probed size.
		if i+1 < len(sizes) {
			best.MaxBytes = (size + sizes[i+1]) / 2
		} else {
			best.MaxBytes = 1 << 62
		}
		table = append(table, best)
	}
	// Merge adjacent brackets with identical selections.
	merged := table[:1]
	for _, e := range table[1:] {
		last := &merged[len(merged)-1]
		if last.St == e.St && last.Block == e.Block {
			last.MaxBytes = e.MaxBytes
			continue
		}
		merged = append(merged, e)
	}
	opts := Options{Table: append([]CutoffEntry(nil), merged...)}
	return opts.withDefaults(), nil
}

// probe measures one candidate's sustained device→device bandwidth on a
// scratch simulation of the system.
func probe(sys cluster.System, st Strategy, block, size int64) (float64, error) {
	eng := sim.NewEngine()
	clus := cluster.New(eng, sys, 2)
	world := mpi.NewWorld(clus)
	opts := Options{Strategy: st}
	if block > 0 {
		opts.PipelineBlock = block
	}
	fab := New(world, opts)
	var seconds float64
	var firstErr error
	world.LaunchRanks("tune", func(p *sim.Proc, ep *mpi.Endpoint) {
		// Only the elapsed time is read: a timing-only context moves no bytes.
		ctx := cl.NewTimingContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("tune%d", ep.Rank()))
		rt := fab.Attach(ctx, ep)
		q := ctx.NewQueue(fmt.Sprintf("tq%d", ep.Rank()))
		buf, err := ctx.CreateBuffer("probe", size)
		if err != nil {
			firstErr = err
			return
		}
		if ep.Rank() == 0 {
			start := p.Now()
			if _, err := rt.EnqueueSendBuffer(p, q, buf, true, 0, size, 1, 0, world.Comm(), nil); err != nil {
				firstErr = err
				return
			}
			seconds = p.Now().Sub(start).Seconds()
		} else if _, err := rt.EnqueueRecvBuffer(p, q, buf, true, 0, size, 0, 0, world.Comm(), nil); err != nil {
			firstErr = err
		}
	})
	if err := eng.Run(); err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(size) / seconds, nil
}

// lookup returns the tuned entry for a size, or false if no table is set.
func (o *Options) lookup(size int64) (CutoffEntry, bool) {
	if len(o.Table) == 0 {
		return CutoffEntry{}, false
	}
	i := sort.Search(len(o.Table), func(i int) bool { return o.Table[i].MaxBytes >= size })
	if i == len(o.Table) {
		i = len(o.Table) - 1
	}
	return o.Table[i], true
}
