package himeno

import (
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// direction of a halo exchange.
type direction int

const (
	dirUp   direction = iota // exchange with rank-1 (part A's halo)
	dirDown                  // exchange with rank+1 (part B's halo)
)

// exchangeSpec resolves the planes and tags of one direction.
func (rk *rank) exchangeSpec(dir direction) (peer, sendLi, ghostLi, sendTag, recvTag int, sendBuf, recvBuf *cl.Buffer) {
	if dir == dirUp {
		return rk.upRank(), 1, 0, tagUp, tagDown, rk.sendLo, rk.recvLo
	}
	return rk.downRank(), rk.own, rk.own + 1, tagDown, tagUp, rk.sendHi, rk.recvHi
}

// hostExchange performs one direction's halo exchange entirely from the host
// thread, blocking at each step — the conventional joint-programming pattern
// of Fig. 1: pack, blocking read (through freshly pinned staging), MPI,
// blocking write, unpack. arr is the array whose halo is exchanged (p or
// wrk, depending on the stage). A missing neighbour makes it a no-op.
func (rk *rank) hostExchange(p *sim.Proc, q *cl.CommandQueue, comm *mpi.Comm, arr []float32, dir direction) error {
	peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(dir)
	if peer < 0 {
		return nil
	}
	s := rk.size
	g := rk.ep.Node().Sys.GPU
	pb := s.planeBytes()
	// Staging planes are transient: recycled across timesteps (and across
	// sweep points) through the shared byte pool, phantom when the run is
	// timing-only. Both are fully overwritten (read-back / message
	// delivery) before they are read.
	hostSend := rk.ctx.HostBuffer(int(pb))
	hostRecv := rk.ctx.HostBuffer(int(pb))

	if _, err := rk.enqueuePack(q, arr, sendLi, sendBuf, nil); err != nil {
		return err
	}
	// Footnote 1 of the paper: pinned host buffers come from map-based
	// allocation, so a fresh staging buffer costs a registration.
	p.Sleep(g.PinSetup)
	if _, err := q.EnqueueReadBuffer(p, sendBuf, true, 0, pb, hostSend, cluster.Pinned, nil); err != nil {
		return err
	}
	sreq, err := rk.ep.Isend(p, hostSend, peer, sendTag, mpi.Bytes, comm)
	if err != nil {
		return err
	}
	rreq, err := rk.ep.Irecv(p, hostRecv, peer, recvTag, mpi.Bytes, comm)
	if err != nil {
		return err
	}
	if err := mpi.Waitall(p, sreq, rreq); err != nil {
		return err
	}
	p.Sleep(g.PinSetup)
	if _, err := q.EnqueueWriteBuffer(p, recvBuf, true, 0, pb, hostRecv, cluster.Pinned, nil); err != nil {
		return err
	}
	if _, err := rk.enqueueUnpack(q, arr, ghostLi, recvBuf, nil); err != nil {
		return err
	}
	if err := q.Finish(p); err != nil {
		return err
	}
	// Every consumer is done: the send is complete (Waitall) and the write
	// command has copied hostRecv into the device buffer (blocking enqueue).
	bytepool.Put(hostSend)
	bytepool.Put(hostRecv)
	return nil
}

// hostExchangeBoth exchanges both halos of arr at once: pack and read both
// outgoing planes, post all four MPI operations, wait, write and unpack both
// ghosts. Posting every request before waiting avoids the O(ranks) wave a
// direction-at-a-time schedule would create — this is how the original
// Himeno MPI code is written.
func (rk *rank) hostExchangeBoth(p *sim.Proc, q *cl.CommandQueue, comm *mpi.Comm, arr []float32) error {
	s := rk.size
	g := rk.ep.Node().Sys.GPU
	pb := s.planeBytes()
	var reqs []*mpi.Request
	type incoming struct {
		ghostLi int
		buf     *cl.Buffer
		host    []byte
	}
	var ins []incoming
	var staged [][]byte // pooled staging planes, recycled on success
	for _, dir := range []direction{dirUp, dirDown} {
		peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(dir)
		if peer < 0 {
			continue
		}
		hostSend := rk.ctx.HostBuffer(int(pb))
		hostRecv := rk.ctx.HostBuffer(int(pb))
		staged = append(staged, hostSend, hostRecv)
		if _, err := rk.enqueuePack(q, arr, sendLi, sendBuf, nil); err != nil {
			return err
		}
		p.Sleep(g.PinSetup)
		if _, err := q.EnqueueReadBuffer(p, sendBuf, true, 0, pb, hostSend, cluster.Pinned, nil); err != nil {
			return err
		}
		sreq, err := rk.ep.Isend(p, hostSend, peer, sendTag, mpi.Bytes, comm)
		if err != nil {
			return err
		}
		rreq, err := rk.ep.Irecv(p, hostRecv, peer, recvTag, mpi.Bytes, comm)
		if err != nil {
			return err
		}
		reqs = append(reqs, sreq, rreq)
		ins = append(ins, incoming{ghostLi, recvBuf, hostRecv})
	}
	if err := mpi.Waitall(p, reqs...); err != nil {
		return err
	}
	for _, in := range ins {
		p.Sleep(g.PinSetup)
		if _, err := q.EnqueueWriteBuffer(p, in.buf, true, 0, pb, in.host, cluster.Pinned, nil); err != nil {
			return err
		}
		if _, err := rk.enqueueUnpack(q, arr, in.ghostLi, in.buf, nil); err != nil {
			return err
		}
	}
	if err := q.Finish(p); err != nil {
		return err
	}
	for _, b := range staged {
		bytepool.Put(b)
	}
	return nil
}

// runSerial is the fully serialized implementation: one kernel over the
// whole subdomain, then both halo exchanges, nothing overlapping (§V-C's
// lower bound). It records the split of compute vs communication time that
// Fig. 9(a) annotates.
func (rk *rank) runSerial(p *sim.Proc, comm *mpi.Comm, iters int) error {
	q := rk.newQueue(fmt.Sprintf("serial.q%d", rk.ep.Rank()))
	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0
		t0 := p.Now()
		k := rk.jacobiKernel("jacobi", rk.p, rk.wrk, 1, rk.own+1)
		if _, err := q.EnqueueNDRangeKernel(k, nil, nil); err != nil {
			return err
		}
		if err := q.Finish(p); err != nil {
			return err
		}
		rk.compTime += p.Now().Sub(t0)
		rk.p, rk.wrk = rk.wrk, rk.p

		t1 := p.Now()
		if err := rk.hostExchangeBoth(p, q, comm, rk.p); err != nil {
			return err
		}
		rk.commTime += p.Now().Sub(t1)
	}
	return nil
}

// stageOrder reports the per-parity schedule of Fig. 2 / Fig. 3: which half
// computes first and which direction's halo is exchanged in each stage.
func (rk *rank) stageOrder() (first, second direction, firstA bool) {
	if rk.ep.Rank()%2 == 0 {
		// Even ranks: compute A while exchanging B's halo, then compute
		// B while exchanging A's halo.
		return dirDown, dirUp, true
	}
	return dirUp, dirDown, false
}

// kernelRange returns the local plane range of part A or B.
func (rk *rank) kernelRange(partA bool) (from, to int) {
	if partA {
		return 1, 1 + rk.half
	}
	return 1 + rk.half, rk.own + 1
}

// runHandOpt is the hand-optimized two-queue implementation of Fig. 2: each
// stage overlaps one half-domain's kernel with the other half's halo
// exchange, but the host thread itself performs the exchange and therefore
// blocks — the limitation Fig. 4(b) illustrates.
func (rk *rank) runHandOpt(p *sim.Proc, comm *mpi.Comm, iters int) error {
	qc := rk.newQueue(fmt.Sprintf("handopt.qc%d", rk.ep.Rank()))
	qx := rk.newQueue(fmt.Sprintf("handopt.qx%d", rk.ep.Rank()))
	firstDir, secondDir, firstA := rk.stageOrder()
	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0
		// Stage 1: kernel over the first half ∥ host-driven exchange of
		// the other half's halo (on p, carrying last iteration's values).
		f1, t1 := rk.kernelRange(firstA)
		if _, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi1", rk.p, rk.wrk, f1, t1), nil, nil); err != nil {
			return err
		}
		if err := rk.hostExchange(p, qx, comm, rk.p, firstDir); err != nil {
			return err
		}
		if err := qc.Finish(p); err != nil {
			return err
		}
		// Stage 2: kernel over the second half ∥ exchange of the first
		// half's freshly computed halo (on wrk).
		f2, t2 := rk.kernelRange(!firstA)
		if _, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi2", rk.p, rk.wrk, f2, t2), nil, nil); err != nil {
			return err
		}
		if err := rk.hostExchange(p, qx, comm, rk.wrk, secondDir); err != nil {
			return err
		}
		if err := qc.Finish(p); err != nil {
			return err
		}
		rk.p, rk.wrk = rk.wrk, rk.p
	}
	return nil
}

// runCLMPI is the extension-based implementation of Fig. 6: the same
// dataflow as runHandOpt, but every operation — kernels, packs, sends,
// receives, unpacks — is an enqueued command whose ordering is enforced by
// events. The host thread enqueues the whole iteration and calls clFinish
// once (§IV-B).
func (rk *rank) runCLMPI(p *sim.Proc, comm *mpi.Comm, iters int) error {
	me := rk.ep.Rank()
	qc := rk.newQueue(fmt.Sprintf("clmpi.qc%d", me))
	qs := rk.newQueue(fmt.Sprintf("clmpi.qs%d", me))
	qr := rk.newQueue(fmt.Sprintf("clmpi.qr%d", me))
	firstDir, secondDir, firstA := rk.stageOrder()
	pb := rk.size.planeBytes()

	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0

		// First-stage exchange, on p (no dependencies: the planes carry
		// last iteration's values).
		var evUnpack1 *cl.Event
		if peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(firstDir); peer >= 0 {
			evPack, err := rk.enqueuePack(qs, rk.p, sendLi, sendBuf, nil)
			if err != nil {
				return err
			}
			if _, err := rk.rt.EnqueueSendBuffer(p, qs, sendBuf, false, 0, pb, peer, sendTag, comm, []*cl.Event{evPack}); err != nil {
				return err
			}
			evRecv, err := rk.rt.EnqueueRecvBuffer(p, qr, recvBuf, false, 0, pb, peer, recvTag, comm, nil)
			if err != nil {
				return err
			}
			if evUnpack1, err = rk.enqueueUnpack(qr, rk.p, ghostLi, recvBuf, []*cl.Event{evRecv}); err != nil {
				return err
			}
		}

		// First kernel: needs nothing from this iteration.
		fa, ta := rk.kernelRange(firstA)
		evK1, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi1", rk.p, rk.wrk, fa, ta), nil, nil)
		if err != nil {
			return err
		}

		// Second kernel: gated on the first-stage ghost update.
		var k2waits []*cl.Event
		if evUnpack1 != nil {
			k2waits = append(k2waits, evUnpack1)
		}
		fb, tb := rk.kernelRange(!firstA)
		if _, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi2", rk.p, rk.wrk, fb, tb), nil, k2waits); err != nil {
			return err
		}

		// Second-stage exchange, on wrk: the outgoing plane is produced
		// by the first kernel, expressed as an event dependency — no
		// host blocking anywhere.
		if peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(secondDir); peer >= 0 {
			evPack, err := rk.enqueuePack(qs, rk.wrk, sendLi, sendBuf, []*cl.Event{evK1})
			if err != nil {
				return err
			}
			if _, err := rk.rt.EnqueueSendBuffer(p, qs, sendBuf, false, 0, pb, peer, sendTag, comm, []*cl.Event{evPack}); err != nil {
				return err
			}
			evRecv, err := rk.rt.EnqueueRecvBuffer(p, qr, recvBuf, false, 0, pb, peer, recvTag, comm, nil)
			if err != nil {
				return err
			}
			if _, err := rk.enqueueUnpack(qr, rk.wrk, ghostLi, recvBuf, []*cl.Event{evRecv}); err != nil {
				return err
			}
		}

		// The host thread's only synchronization: one flush per queue at
		// the end of the iteration (Fig. 6).
		if err := qc.Finish(p); err != nil {
			return err
		}
		if err := qs.Finish(p); err != nil {
			return err
		}
		if err := qr.Finish(p); err != nil {
			return err
		}
		// Optional checkpoint of the completed iteration (the §VI file
		// I/O commands); the disk write overlaps subsequent iterations.
		if err := rk.maybeCheckpoint(p, it, rk.wrk, nil); err != nil {
			return err
		}
		rk.p, rk.wrk = rk.wrk, rk.p
	}
	return rk.finishCheckpoints(p)
}

// gpuAwareExchange performs one direction's halo exchange through GPU-aware
// MPI (§II): the MPI layer stages the device buffer optimally inside, but
// the host thread must synchronize with the device before and after — the
// pack must be flushed before calling MPI (there is no event to hand over),
// and the host blocks in Waitall.
func (rk *rank) gpuAwareExchange(p *sim.Proc, qx *cl.CommandQueue, comm *mpi.Comm, arr []float32, dir direction) error {
	peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(dir)
	if peer < 0 {
		return nil
	}
	pb := rk.size.planeBytes()
	if _, err := rk.enqueuePack(qx, arr, sendLi, sendBuf, nil); err != nil {
		return err
	}
	// §II: "the host thread needs to wait for the kernel execution
	// completion in order to serialize the kernel execution and the MPI
	// communication" — here, the pack.
	if err := qx.Finish(p); err != nil {
		return err
	}
	sreq, err := rk.rt.IsendDeviceBuffer(p, sendBuf, 0, pb, peer, sendTag, comm)
	if err != nil {
		return err
	}
	rreq, err := rk.rt.IrecvDeviceBuffer(p, recvBuf, 0, pb, peer, recvTag, comm)
	if err != nil {
		return err
	}
	if err := mpi.Waitall(p, sreq, rreq); err != nil {
		return err
	}
	if _, err := rk.enqueueUnpack(qx, arr, ghostLi, recvBuf, nil); err != nil {
		return err
	}
	return qx.Finish(p)
}

// runGPUAware is the hand-optimized schedule with GPU-aware MPI transfers:
// the staging inefficiency of runHandOpt disappears (the library picks the
// same optimized implementation the clMPI runtime would), but the host
// thread still serializes the two communication stages against the device —
// isolating the scheduling half of the paper's contribution from the
// transfer-selection half.
func (rk *rank) runGPUAware(p *sim.Proc, comm *mpi.Comm, iters int) error {
	qc := rk.newQueue(fmt.Sprintf("gpuaware.qc%d", rk.ep.Rank()))
	qx := rk.newQueue(fmt.Sprintf("gpuaware.qx%d", rk.ep.Rank()))
	firstDir, secondDir, firstA := rk.stageOrder()
	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0
		f1, t1 := rk.kernelRange(firstA)
		if _, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi1", rk.p, rk.wrk, f1, t1), nil, nil); err != nil {
			return err
		}
		if err := rk.gpuAwareExchange(p, qx, comm, rk.p, firstDir); err != nil {
			return err
		}
		if err := qc.Finish(p); err != nil {
			return err
		}
		f2, t2 := rk.kernelRange(!firstA)
		if _, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi2", rk.p, rk.wrk, f2, t2), nil, nil); err != nil {
			return err
		}
		if err := rk.gpuAwareExchange(p, qx, comm, rk.wrk, secondDir); err != nil {
			return err
		}
		if err := qc.Finish(p); err != nil {
			return err
		}
		rk.p, rk.wrk = rk.wrk, rk.p
	}
	return nil
}

// runCLMPIOutOfOrder expresses the Fig. 6 dataflow on a single out-of-order
// command queue per rank instead of three in-order queues: every kernel,
// pack, unpack, and communication command carries its dependencies as
// events and the runtime schedules whatever is eligible. Same DAG, same
// results, one queue — a composition of the extension with OpenCL's
// out-of-order execution mode that the in-order-only paper could not show.
func (rk *rank) runCLMPIOutOfOrder(p *sim.Proc, comm *mpi.Comm, iters int) error {
	me := rk.ep.Rank()
	q := rk.ctx.NewOutOfOrderQueue(fmt.Sprintf("clmpiooo.q%d", me))
	firstDir, secondDir, firstA := rk.stageOrder()
	pb := rk.size.planeBytes()

	// Out-of-order comm command helpers on q.
	send := func(buf *cl.Buffer, peer, tag int, waits []*cl.Event) (*cl.Event, error) {
		return q.Enqueue(fmt.Sprintf("clmpi.send ooo->%d", peer), waits, func(wp *sim.Proc) error {
			return rk.rt.SendDeviceBuffer(wp, buf, 0, pb, peer, tag, comm)
		})
	}
	recv := func(buf *cl.Buffer, peer, tag int, waits []*cl.Event) (*cl.Event, error) {
		return q.Enqueue(fmt.Sprintf("clmpi.recv ooo<-%d", peer), waits, func(wp *sim.Proc) error {
			return rk.rt.RecvDeviceBuffer(wp, buf, 0, pb, peer, tag, comm)
		})
	}

	// prevK2: the previous iteration's second kernel; both kernels of an
	// iteration read the arrays the previous iteration finalized, so they
	// wait for it explicitly (the in-order variants get this for free).
	var prevIter *cl.Event
	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0
		var iterEvents []*cl.Event
		dep := func(evs ...*cl.Event) []*cl.Event {
			out := append([]*cl.Event(nil), evs...)
			if prevIter != nil {
				out = append(out, prevIter)
			}
			return out
		}

		// First-stage exchange on p.
		var evUnpack1 *cl.Event
		if peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(firstDir); peer >= 0 {
			evPack, err := rk.enqueuePack(q, rk.p, sendLi, sendBuf, dep())
			if err != nil {
				return err
			}
			evSend, err := send(sendBuf, peer, sendTag, []*cl.Event{evPack})
			if err != nil {
				return err
			}
			evRecv, err := recv(recvBuf, peer, recvTag, dep())
			if err != nil {
				return err
			}
			if evUnpack1, err = rk.enqueueUnpack(q, rk.p, ghostLi, recvBuf, []*cl.Event{evRecv}); err != nil {
				return err
			}
			iterEvents = append(iterEvents, evSend, evUnpack1)
		}

		fa, ta := rk.kernelRange(firstA)
		evK1, err := q.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi1", rk.p, rk.wrk, fa, ta), nil, dep())
		if err != nil {
			return err
		}
		k2waits := dep(evK1) // serialize the two kernels' gosa accumulation
		if evUnpack1 != nil {
			k2waits = append(k2waits, evUnpack1)
		}
		fb, tb := rk.kernelRange(!firstA)
		evK2, err := q.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi2", rk.p, rk.wrk, fb, tb), nil, k2waits)
		if err != nil {
			return err
		}
		iterEvents = append(iterEvents, evK1, evK2)

		// Second-stage exchange on wrk.
		if peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(secondDir); peer >= 0 {
			evPack, err := rk.enqueuePack(q, rk.wrk, sendLi, sendBuf, []*cl.Event{evK1})
			if err != nil {
				return err
			}
			evSend, err := send(sendBuf, peer, sendTag, []*cl.Event{evPack})
			if err != nil {
				return err
			}
			evRecv, err := recv(recvBuf, peer, recvTag, dep())
			if err != nil {
				return err
			}
			evUnpack2, err := rk.enqueueUnpack(q, rk.wrk, ghostLi, recvBuf, []*cl.Event{evRecv})
			if err != nil {
				return err
			}
			iterEvents = append(iterEvents, evSend, evUnpack2)
		}

		// One marker per iteration stands in for the swap barrier; the
		// host still only blocks once, at Finish below.
		mev, err := q.Enqueue("iter-complete", iterEvents, func(*sim.Proc) error { return nil })
		if err != nil {
			return err
		}
		prevIter = mev
		if err := q.Finish(p); err != nil {
			return err
		}
		rk.p, rk.wrk = rk.wrk, rk.p
	}
	return nil
}
