// Package bytepool recycles the data-plane byte slices the simulation churns
// through: eager MPI payload copies, device buffer backing stores, and host
// staging buffers. A sweep re-runs near-identical simulations thousands of
// times; without recycling, every point reallocates (and the GC re-zeroes)
// the same few-megabyte blocks.
//
// Slices are pooled in power-of-two size classes backed by sync.Pool, so the
// pool is safe for concurrent use from parallel sweep workers and shrinks
// under GC pressure like any sync.Pool.
//
// Timing-only runs use phantom slices instead (phantom.go): a length with no
// storage. Copy, Capture and Put are the operations every data-plane copy,
// eager capture and recycle goes through, so they are the places that tell
// the two kinds apart.
package bytepool

import (
	"math/bits"
	"sync"
)

// maxClass bounds pooled slices at 1<<maxClass bytes (64 MiB, the largest
// message of the paper's sweeps). Larger requests are plainly allocated.
const maxClass = 26

var classes [maxClass + 1]sync.Pool

// boxes recycles the *[]byte headers the size-class pools store, so Put does
// not heap-allocate a fresh box per call (sync.Pool values must be pointers
// to avoid boxing the interface, and &b escapes).
var boxes = sync.Pool{New: func() any { return new([]byte) }}

// class returns the size-class index for n, or -1 if n is unpooled.
func class(n int) int {
	if n <= 0 || n > 1<<maxClass {
		return -1
	}
	return bits.Len(uint(n - 1))
}

// unbox extracts the slice from a pooled box and returns the empty box to
// the header pool.
func unbox(v any) []byte {
	box := v.(*[]byte)
	b := *box
	*box = nil
	boxes.Put(box)
	return b
}

// Get returns a slice of length n. The contents are arbitrary bytes from a
// previous use; callers that need zeroed memory must use GetZero.
func Get(n int) []byte {
	c := class(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		return unbox(v)[:n]
	}
	return make([]byte, n, 1<<c)
}

// GetZero returns a zeroed slice of length n, like make([]byte, n). Only
// recycled blocks pay for the clear; fresh allocations are already zero.
func GetZero(n int) []byte {
	c := class(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		b := unbox(v)[:n]
		clear(b)
		return b
	}
	return make([]byte, n, 1<<c)
}

// Put recycles a slice obtained from Get/GetZero. The caller must not retain
// any alias to b. Slices whose capacity is not an exact size class (they did
// not come from this pool) are dropped, and so are phantom slices.
func Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 || c > 1<<maxClass || IsPhantom(b) {
		return
	}
	box := boxes.Get().(*[]byte)
	*box = b[:c]
	classes[bits.Len(uint(c-1))].Put(box)
}
