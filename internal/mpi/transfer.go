package mpi

import (
	"fmt"
	"time"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

// secondsToDur converts floating-point seconds to a duration.
func secondsToDur(s float64) time.Duration { return time.Duration(s * 1e9) }

// checkArgs validates a destination rank and user tag.
func (ep *Endpoint) checkArgs(dest, tag int) error {
	if dest < 0 || dest >= ep.world.size {
		return fmt.Errorf("%w: destination %d of %d", ErrRankRange, dest, ep.world.size)
	}
	if tag < 0 {
		return fmt.Errorf("%w: tag %d", ErrTagNegative, tag)
	}
	return nil
}

// wireXfer is one message crossing the fabric from src's node to dst's
// node: the sender's transmit path and the receiver's receive path are held
// concurrently (cut-through) for the per-message software overhead plus the
// serialization time. It runs as a stackless sim process — a small state
// machine stepped by the scheduler (sim.Engine.SpawnTask) — rather than a
// goroutine per message, yet it queues in the same link FIFOs at the same
// ready-queue positions, so virtual time is that of a blocking process
// doing the same work. The states follow the resource order, which keeps
// the model cycle-free: a switch path is taken first (FIFO), then the
// endpoints.
type wireXfer struct {
	w        *World
	src, dst int
	n        int64
	state    uint8
	start    sim.Time // the instant both endpoints were held
	// Completion, once the last byte has left: a rendezvous data phase runs
	// its rndv closure; an eager msg completes its sender and arrives one
	// wire latency later.
	msg  *message
	rndv func(p *sim.Proc)
}

const (
	xferBackplane uint8 = iota // waiting for a switch path
	xferTX                     // waiting for the sender's transmit path
	xferRX                     // waiting for the receiver's receive path
	xferHold                   // both held: occupy them
	xferDone                   // occupancy over: charge, release, complete
)

// startWire launches the wire transfer of an eager message (rndv == nil)
// or of a matched rendezvous message's data phase.
func (w *World) startWire(msg *message, rndv func(p *sim.Proc)) {
	x := &wireXfer{w: w, src: msg.src, dst: msg.dst, n: int64(msg.size), msg: msg, rndv: rndv}
	w.eng.SpawnTask(x.name, x.step)
}

// name is the transfer's process name, which its link charges carry:
// "eager s->d" or "rndv s->d", as the per-message processes it replaces
// were called.
func (x *wireXfer) name() string {
	verb := "eager"
	if x.rndv != nil {
		verb = "rndv"
	}
	return fmt.Sprintf("%s %d->%d", verb, x.src, x.dst)
}

// step advances the transfer as far as it can go now, returning after it
// arranges its next wake-up (or after completing).
func (x *wireXfer) step(p *sim.Proc) {
	w := x.w
	bp := w.clus.Backplane
	tx, rx := w.Node(x.src).TX, w.Node(x.dst).RX
	ov := w.clus.Sys.NIC.MsgOverhead
	switch x.state {
	case xferBackplane:
		x.state = xferTX
		if bp != nil && !bp.AcquireOrWait(p, 1) {
			return
		}
		fallthrough
	case xferTX:
		x.state = xferRX
		if !tx.LockOrWait(p) {
			return
		}
		fallthrough
	case xferRX:
		x.state = xferHold
		if !rx.LockOrWait(p) {
			return
		}
		fallthrough
	case xferHold:
		x.start = p.Now()
		x.state = xferDone
		if d := ov + tx.SerializationTime(x.n); d > 0 {
			p.WakeAfter(d)
			return
		}
		fallthrough
	case xferDone:
		pname := ""
		if tx.Observed() || rx.Observed() {
			pname = p.Name()
		}
		// One occupancy interval, accounted as two differently-classed
		// legs: per-message software overhead first, then serialization.
		mid := x.start.Add(ov)
		end := p.Now()
		tx.ChargeTagged("mpi.sw", pname, 0, x.start, mid)
		tx.ChargeTagged("wire", pname, x.n, mid, end)
		rx.ChargeTagged("mpi.sw", pname, 0, x.start, mid)
		rx.ChargeTagged("wire", pname, x.n, mid, end)
		rx.Unlock(p)
		tx.Unlock(p)
		if bp != nil {
			bp.Release(p, 1)
		}
		if x.rndv != nil {
			x.rndv(p)
			return
		}
		msg := x.msg
		w.observe(MsgEvent{Kind: MsgWireDone, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
			Seq: msg.seq, Bytes: msg.size, Eager: true, At: end})
		// The NIC has the data: the sender's buffer is free.
		msg.req.complete(Status{}, nil)
		msg.arrived.FireAfter(w.clus.Sys.NIC.WireLatency, nil)
	}
}

// deliver finalizes a matched (message, receive) pair.
func (c *Comm) deliver(msg *message, rop *recvOp) {
	w := c.world
	now := w.eng.Now()
	// Queue depths are sampled once, at match time (both sides have already
	// left the queues); the delivered event reuses them so its payload does
	// not depend on unrelated traffic between match and delivery.
	pd, ud := c.match.depths(msg.dst)
	// Snapshot the receive sequence: the delivered closure may run after the
	// recvOp has been recycled through the world's pool.
	rseq := rop.seq
	delivered := func(at sim.Time) MsgEvent {
		return MsgEvent{Kind: MsgDelivered, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
			Seq: msg.seq, RecvSeq: rseq, Bytes: msg.size, Eager: msg.eager, At: at,
			PostedDepth: pd, UnexpectedDepth: ud}
	}
	w.observe(MsgEvent{Kind: MsgMatched, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, RecvSeq: rseq, Bytes: msg.size, Eager: msg.eager, At: now,
		PostedDepth: pd, UnexpectedDepth: ud})
	st := Status{Source: msg.src, Tag: msg.tag, Count: msg.size}
	if msg.size > len(rop.buf) {
		// Truncation is the receiver's error; the sender completes
		// normally (its data was accepted by the transport).
		err := fmt.Errorf("%w: %d bytes into %d-byte buffer", ErrTruncate, msg.size, len(rop.buf))
		switch {
		case msg.xRndv:
			// Cross-partition rendezvous: grant a negative clear-to-send so
			// the remote sender completes without a data phase — the same
			// rule as the serial rendezvous truncation below.
			rop.req.complete(st, err)
			w.part.ctsBack(msg, false, 0)
		case msg.eager:
			rop.req.complete(st, err)
		default:
			msg.req.complete(Status{}, nil)
			rop.req.complete(st, err)
		}
		if msg.payload != nil {
			// Nothing will read the captured copy: recycle it now.
			bytepool.Put(msg.payload)
			msg.payload = nil
		}
		w.observe(delivered(now))
		if msg.xArrived || msg.xRndv {
			w.putMsg(msg)
		}
		w.putRop(rop)
		return
	}
	if msg.xArrived {
		// Cross-partition eager: the payload arrived with the injected
		// envelope, so delivery is immediate (the injection instant is never
		// later than the match instant).
		copy(rop.buf, msg.payload)
		bytepool.Put(msg.payload)
		msg.payload = nil
		rop.req.complete(st, nil)
		w.observe(delivered(now))
		w.putRop(rop)
		w.putMsg(msg)
		return
	}
	if msg.xRndv {
		// Cross-partition rendezvous: record where the data phase must land,
		// then grant the remote sender its clear-to-send. Delivery happens
		// when the data event arrives (partition.go completeData).
		w.part.awaitData(msg, rop, st, pd, ud)
		w.part.ctsBack(msg, true, rseq)
		w.putRop(rop)
		w.putMsg(msg)
		return
	}
	if msg.eager {
		// Data travels independently of matching; the receive completes
		// when the payload has arrived (it may already have).
		buf := rop.buf
		req := rop.req
		if msg.direct {
			// Intra-node copy elision: matching is synchronous with the
			// send, so the sender's buffer still holds the payload — fill
			// the receiver-owned buffer directly, skipping the staged copy.
			copy(buf, msg.sendBuf)
			msg.sendBuf = nil
		}
		msg.arrived.OnFire(func(at sim.Time, _ any) {
			if msg.payload != nil {
				copy(buf, msg.payload)
				bytepool.Put(msg.payload)
				msg.payload = nil
			}
			req.status = st
			if at < now {
				// Payload beat the receive: delivery is at match time.
				at = now
			}
			w.observe(delivered(at))
		})
		msg.arrived.Chain(req.Done())
		// The receive op's buffer and request now live in locals and the
		// closure above; the op itself is done.
		w.putRop(rop)
		return
	}
	if msg.src == msg.dst {
		// Local rendezvous (synchronous self-send): a memory copy.
		d := localOverhead + secondsToDur(float64(msg.size)/w.Node(msg.src).Sys.CPU.MemBW)
		copy(rop.buf, msg.sendBuf)
		msg.req.completeAfter(d, Status{}, nil)
		rop.req.completeAfter(d, st, nil)
		w.observe(delivered(now.Add(d)))
		return
	}
	// Rendezvous: run the wire transfer now that both sides exist.
	lat := w.clus.Sys.NIC.WireLatency
	w.startWire(msg, func(tp *sim.Proc) {
		w.observe(MsgEvent{Kind: MsgWireDone, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
			Seq: msg.seq, RecvSeq: rseq, Bytes: msg.size, At: tp.Now(),
			PostedDepth: pd, UnexpectedDepth: ud})
		copy(rop.buf, msg.sendBuf)
		// Sender's buffer is reusable once the NIC is done with it.
		msg.req.complete(Status{}, nil)
		rop.req.completeAfter(lat, st, nil)
		w.observe(delivered(tp.Now().Add(lat)))
	})
}

// Send is the blocking send, like MPI_Send: it returns when the send buffer
// may be reused (eager: NIC accepted; rendezvous: transfer done).
func (ep *Endpoint) Send(p *sim.Proc, buf []byte, dest, tag int, dtype Datatype, comm *Comm) error {
	req, err := ep.Isend(p, buf, dest, tag, dtype, comm)
	if err != nil {
		return err
	}
	_, err = req.Wait(p)
	return err
}

// Recv is the blocking receive, like MPI_Recv.
func (ep *Endpoint) Recv(p *sim.Proc, buf []byte, src, tag int, dtype Datatype, comm *Comm) (Status, error) {
	req, err := ep.Irecv(p, buf, src, tag, dtype, comm)
	if err != nil {
		return Status{}, err
	}
	return req.Wait(p)
}

// Sendrecv performs a combined send and receive without deadlocking on
// cyclic exchange patterns, like MPI_Sendrecv — the primitive Figure 1 of
// the paper builds its halo exchange on.
func (ep *Endpoint) Sendrecv(p *sim.Proc, sendBuf []byte, dest, sendTag int, recvBuf []byte, src, recvTag int, comm *Comm) (Status, error) {
	sreq, err := ep.Isend(p, sendBuf, dest, sendTag, Bytes, comm)
	if err != nil {
		return Status{}, err
	}
	rreq, err := ep.Irecv(p, recvBuf, src, recvTag, Bytes, comm)
	if err != nil {
		return Status{}, err
	}
	if _, err := sreq.Wait(p); err != nil {
		return Status{}, err
	}
	return rreq.Wait(p)
}
