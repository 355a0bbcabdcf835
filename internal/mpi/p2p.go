package mpi

import (
	"fmt"
	"time"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

// localOverhead is the software cost of a self-message (shared-memory copy
// path inside one node).
const localOverhead = time.Microsecond

// Datatype tags the memory class of a transfer. Payloads are always raw
// bytes; the datatype only selects the transfer machinery, which is exactly
// how the paper employs MPI_CL_MEM (§IV-C).
type Datatype int

const (
	// Bytes is ordinary host memory.
	Bytes Datatype = iota
	// CLMem marks the peer buffer as device-resident: the transfer is
	// delegated to the registered CLMemHook (the clMPI runtime), which
	// collaborates with the sender for efficient host↔device staging.
	CLMem
)

// message is a posted send awaiting (or matched to) a receive.
type message struct {
	src, dst, tag int
	seq           uint64
	size          int
	eager         bool
	payload       []byte // eager: pooled captured copy (phantom: the send buffer); rendezvous/direct: nil
	sendBuf       []byte // rendezvous (and direct self-sends): the live send buffer
	// direct marks an intra-node copy elision: a matching receive was
	// already posted when the send arrived, so delivery fills the
	// receiver-owned buffer straight from the sender's (no intermediate
	// payload capture). Set only when matching is synchronous with the send.
	direct  bool
	arrived sim.Trigger // data available at the receiver (eager/local)
	req     *Request
	// Cross-partition markers (see partition.go). xArrived: an injected
	// eager envelope whose payload came with it (req is nil — the sender's
	// request completed on its own shard). xRndv: an injected rendezvous
	// envelope whose data phase runs as a separate cross event once the
	// receiver grants clear-to-send (req is nil here too).
	xArrived bool
	xRndv    bool

	// Intrusive matcher links (see match.go): the (src, tag) lane FIFO and
	// the destination rank's arrival list. Nil once unlinked, so a matched
	// message retains nothing.
	laneNext, lanePrev *message
	arrNext, arrPrev   *message
}

// recvOp is a posted receive awaiting a message.
type recvOp struct {
	owner    int // the rank that posted the receive
	src, tag int // may be AnySource / AnyTag
	seq      uint64
	buf      []byte
	req      *Request

	// Intrusive matcher links: the literal (src, tag) lane FIFO.
	laneNext, lanePrev *recvOp
}

// Isend starts a nonblocking send of buf to rank dest with the given tag,
// like MPI_Isend. With dtype CLMem the registered hook takes over.
//
// Eager messages (≤ EagerThreshold) capture the payload immediately: the
// request completes once the NIC has accepted the data, regardless of the
// receiver. Larger messages use rendezvous: the request completes only after
// the matching receive is posted and the wire transfer has finished.
func (ep *Endpoint) Isend(p *sim.Proc, buf []byte, dest, tag int, dtype Datatype, comm *Comm) (*Request, error) {
	if err := ep.checkArgs(dest, tag); err != nil {
		return nil, err
	}
	if dtype == CLMem {
		if ep.world.hook == nil {
			return nil, ErrNoCLMemHook
		}
		return ep.world.hook.IsendCLMem(p, ep, buf, dest, tag, comm)
	}
	return ep.postSend(buf, dest, tag, comm), nil
}

// postSend is the transport-level send, shared by user sends and internal
// collective traffic (which uses negative tags).
func (ep *Endpoint) postSend(buf []byte, dest, tag int, comm *Comm) *Request {
	w := ep.world
	if ps := w.part; ps != nil && !ps.local(dest) && dest != ep.rank {
		// Destination lives on another partition: route through the
		// cross-partition transport (see partition.go).
		return ps.crossSend(ep, buf, dest, tag, comm, false)
	}
	msg := w.getMsg()
	msg.src, msg.dst, msg.tag, msg.seq = ep.rank, dest, tag, w.nextSeq()
	msg.size = len(buf)
	msg.req = newReqCoded(w.eng, reqIsend, ep.rank, dest, tag)
	msg.req.seq = msg.seq
	switch {
	case dest == ep.rank:
		// Self-message: a shared-memory copy, no NIC involved.
		msg.eager = true
		msg.arrived.Init(w.eng, "self-msg")
		if rop := comm.firstMatch(msg); rop != nil && msg.size <= len(rop.buf) {
			// Copy elision: the receive is already posted, and matching
			// happens synchronously below, so delivery can fill the
			// receiver's buffer directly from the (still untouched) send
			// buffer instead of staging a payload copy.
			msg.direct = true
			msg.sendBuf = buf
		} else {
			msg.payload = bytepool.Capture(buf)
		}
		d := localOverhead + secondsToDur(float64(len(buf))/ep.Node().Sys.CPU.MemBW)
		msg.arrived.FireAfter(d, nil)
		msg.req.completeAfter(d, Status{}, nil)
	case len(buf) <= EagerThreshold:
		msg.eager = true
		msg.payload = bytepool.Capture(buf)
		msg.arrived.Init(w.eng, "eager-msg")
		w.startWire(msg, nil)
	default:
		msg.sendBuf = buf // rendezvous: transfer happens at match time
	}
	comm.match.addMsg(msg)
	pd, ud := comm.match.depths(msg.dst)
	w.observe(MsgEvent{Kind: MsgSendPosted, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, Bytes: msg.size, Eager: msg.eager, At: w.eng.Now(),
		PostedDepth: pd, UnexpectedDepth: ud})
	comm.matchPostedMsg(msg)
	return msg.req
}

// Irecv starts a nonblocking receive into buf from rank src (or AnySource)
// with the given tag (or AnyTag), like MPI_Irecv. With dtype CLMem the
// registered hook takes over.
func (ep *Endpoint) Irecv(p *sim.Proc, buf []byte, src, tag int, dtype Datatype, comm *Comm) (*Request, error) {
	if src != AnySource {
		if src < 0 || src >= ep.world.size {
			return nil, fmt.Errorf("%w: source %d", ErrRankRange, src)
		}
	}
	if tag != AnyTag && tag < 0 {
		return nil, fmt.Errorf("%w: tag %d", ErrTagNegative, tag)
	}
	if dtype == CLMem {
		if ep.world.hook == nil {
			return nil, ErrNoCLMemHook
		}
		return ep.world.hook.IrecvCLMem(p, ep, buf, src, tag, comm)
	}
	return ep.postRecv(buf, src, tag, comm), nil
}

// postRecv is the transport-level receive, shared by user receives and
// internal collective traffic.
func (ep *Endpoint) postRecv(buf []byte, src, tag int, comm *Comm) *Request {
	w := ep.world
	rop := w.getRop()
	rop.owner = ep.rank
	rop.src, rop.tag, rop.seq, rop.buf = src, tag, w.nextSeq(), buf
	rop.req = newReqCoded(w.eng, reqIrecv, ep.rank, src, tag)
	rop.req.seq = rop.seq
	// deliver may recycle rop through the world's pool (partitioned runs),
	// so everything needed after it runs is snapshotted here.
	req, seq := rop.req, rop.seq
	// Take the earliest pending message in arrival order (non-overtaking per
	// sender); only an unmatched receive joins the posted queue.
	msg := comm.match.takeMsg(rop)
	if msg == nil {
		comm.match.addRecv(rop)
	}
	pd, ud := comm.match.depths(ep.rank)
	w.observe(MsgEvent{Kind: MsgRecvPosted, Src: src, Dst: ep.rank, Tag: tag,
		Seq: seq, Bytes: len(buf), At: w.eng.Now(),
		PostedDepth: pd, UnexpectedDepth: ud})
	if msg != nil {
		comm.deliver(msg, rop)
	}
	return req
}

// matches reports whether a posted receive accepts a message. Wildcard tags
// only match user messages (non-negative tags), so internal collective
// traffic can never satisfy an AnyTag receive.
func matches(rop *recvOp, msg *message) bool {
	if rop.src != AnySource && rop.src != msg.src {
		return false
	}
	if rop.tag == AnyTag {
		return msg.tag >= 0
	}
	return rop.tag == msg.tag
}

// firstMatch returns the posted receive that matchPostedMsg would pair msg
// with, or nil — the send-side copy-elision prediction. It shares the
// engine's selection code with the real match, so the two cannot drift.
func (c *Comm) firstMatch(msg *message) *recvOp {
	return c.match.matchMsg(msg, false)
}

// matchPostedMsg wakes matching probers and pairs a just-enqueued message
// against posted receives — the shared tail of every send path.
func (c *Comm) matchPostedMsg(msg *message) {
	c.notifyProbers(msg)
	if rop := c.match.matchMsg(msg, true); rop != nil {
		c.match.removeMsg(msg)
		c.deliver(msg, rop)
	}
}
