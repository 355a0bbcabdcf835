package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

// Additional internal tag bases for the vector collectives.
const (
	tagAllgather = -5000
	tagAlltoall  = -6000
	tagReduceVec = -7000
)

// Allgather collects each rank's equal-sized contribution on every rank,
// laid out by rank in out, like MPI_Allgather. Implemented as a ring: n-1
// steps, each forwarding the block received in the previous step — the
// bandwidth-optimal algorithm for large payloads.
func (ep *Endpoint) Allgather(p *sim.Proc, contrib []byte, out []byte, comm *Comm) error {
	n := ep.world.size
	sz := len(contrib)
	if len(out) < sz*n {
		return fmt.Errorf("%w: allgather buffer %d < %d", ErrTruncate, len(out), sz*n)
	}
	me := ep.rank
	bytepool.Copy(out[me*sz:(me+1)*sz], contrib)
	if n == 1 {
		return nil
	}
	right := (me + 1) % n
	left := (me - 1 + n) % n
	for step := 0; step < n-1; step++ {
		sendBlock := (me - step + n) % n
		recvBlock := (me - step - 1 + n) % n
		tag := tagAllgather - step
		sreq := ep.postSend(out[sendBlock*sz:(sendBlock+1)*sz], right, tag, comm)
		rreq := ep.postRecv(out[recvBlock*sz:(recvBlock+1)*sz], left, tag, comm)
		if err := Waitall(p, sreq, rreq); err != nil {
			return fmt.Errorf("mpi: allgather step %d: %w", step, err)
		}
	}
	return nil
}

// Alltoall performs a personalized all-to-all exchange of equal-sized
// blocks: rank i's block j in `in` lands at rank j's block i in `out`, like
// MPI_Alltoall. All 2(n-1) operations are posted before waiting, so
// disjoint pairs use the fabric concurrently and the backplane model (if
// configured) governs the aggregate.
func (ep *Endpoint) Alltoall(p *sim.Proc, in []byte, out []byte, blockSize int, comm *Comm) error {
	n := ep.world.size
	if blockSize <= 0 {
		return fmt.Errorf("mpi: alltoall block size %d", blockSize)
	}
	if len(in) < blockSize*n || len(out) < blockSize*n {
		return fmt.Errorf("%w: alltoall buffers %d/%d < %d", ErrTruncate, len(in), len(out), blockSize*n)
	}
	me := ep.rank
	bytepool.Copy(out[me*blockSize:(me+1)*blockSize], in[me*blockSize:(me+1)*blockSize])
	reqs := make([]*Request, 0, 2*(n-1))
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		reqs = append(reqs,
			ep.postSend(in[r*blockSize:(r+1)*blockSize], r, tagAlltoall, comm),
			ep.postRecv(out[r*blockSize:(r+1)*blockSize], r, tagAlltoall, comm))
	}
	if err := Waitall(p, reqs...); err != nil {
		return fmt.Errorf("mpi: alltoall: %w", err)
	}
	return nil
}

// ReduceSumVec element-wise sums each rank's float64 vector onto the root
// (non-roots receive nothing), like MPI_Reduce with MPI_SUM. A binomial
// reduction tree keeps the depth logarithmic; partial sums are accumulated
// in rank order within each subtree, so the result is deterministic for a
// given size (though grouped differently from a serial left-to-right sum).
func (ep *Endpoint) ReduceSumVec(p *sim.Proc, vec []float64, root int, comm *Comm) ([]float64, error) {
	n := ep.world.size
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: reduce root %d", ErrRankRange, root)
	}
	acc := append([]float64(nil), vec...)
	if n == 1 {
		return acc, nil
	}
	vrank := (ep.rank - root + n) % n
	wire := make([]byte, 8*len(vec))
	// Binomial tree, leaves inward: at round k, vranks with bit k set send
	// their partial to vrank - 2^k and exit.
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % n
			for i, v := range acc {
				binary.LittleEndian.PutUint64(wire[i*8:], math.Float64bits(v))
			}
			if err := ep.Wait(p, ep.postSend(wire, parent, tagReduceVec-mask, comm)); err != nil {
				return nil, fmt.Errorf("mpi: reduce send: %w", err)
			}
			return nil, nil // non-root contribution delivered
		}
		child := vrank + mask
		if child < n {
			from := (child + root) % n
			if _, err := ep.postRecv(wire, from, tagReduceVec-mask, comm).Wait(p); err != nil {
				return nil, fmt.Errorf("mpi: reduce recv: %w", err)
			}
			for i := range acc {
				acc[i] += math.Float64frombits(binary.LittleEndian.Uint64(wire[i*8:]))
			}
		}
	}
	return acc, nil
}
