// Package mpi implements an MPI-like message-passing runtime on the
// simulation substrate. Each rank maps to one cluster node; any number of
// simulated processes may call into an endpoint concurrently, modelling
// MPI_THREAD_MULTIPLE — the threading level the clMPI paper requires of the
// underlying MPI implementation (§V-A).
//
// Semantics follow MPI where the paper depends on them:
//
//   - point-to-point send/recv with tags, MPI_ANY_SOURCE / MPI_ANY_TAG
//     wildcards, and non-overtaking ordering between a (sender, receiver,
//     communicator) pair;
//   - nonblocking operations returning Requests with Wait/Test;
//   - an eager protocol for small messages (the send buffer is captured and
//     the send completes as soon as the NIC accepts it) and a rendezvous
//     protocol for large ones (the send completes only after the matching
//     receive is posted and the wire transfer finishes);
//   - communicators with isolated matching (Dup);
//   - binomial-tree Bcast and dissemination Barrier, built from the
//     point-to-point layer.
//
// Timing charges the sender's NIC transmit path and the receiver's NIC
// receive path concurrently (cut-through) for the serialization time, plus
// the fabric's wire latency and per-message software overhead taken from the
// cluster model. Message payloads are real bytes, or phantom slices in
// timing-only runs (bytepool.Copy moves nothing between two of those).
package mpi

import "errors"

// Wildcards and limits.
const (
	// AnySource matches a message from any rank, like MPI_ANY_SOURCE.
	AnySource = -1
	// AnyTag matches any non-negative user tag, like MPI_ANY_TAG.
	AnyTag = -1
	// EagerThreshold is the message size, in bytes, at or below which the
	// eager protocol applies. 64 KiB mirrors common Open MPI defaults.
	EagerThreshold = 64 << 10
)

// Errors reported by the runtime.
var (
	ErrRankRange   = errors.New("mpi: rank out of range")
	ErrTagNegative = errors.New("mpi: user tags must be non-negative")
	ErrTruncate    = errors.New("mpi: message truncated (receive buffer too small)")
	ErrNoCLMemHook = errors.New("mpi: no CL_MEM handler registered")
	ErrRequestDone = errors.New("mpi: operation on completed request")
)

// Status describes a completed receive, like MPI_Status.
type Status struct {
	Source int // sending rank
	Tag    int // message tag
	Count  int // payload bytes delivered
}
