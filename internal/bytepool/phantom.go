package bytepool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Phantom storage serves timing-only runs. Every virtual-time charge of the
// simulation is a function of byte counts, never of byte values, so a run
// whose caller reads only times needs buffers with a length and no storage.
// A phantom slice is a window of one shared read-only anonymous mapping of
// PhantomMax bytes: address space only, with no resident pages and nothing
// on the GC heap. Every phantom slice aliases that block; reads see zeros,
// and a write faults.

// PhantomMax bounds a phantom slice (1 GiB, the daemon's largest message).
const PhantomMax = 1 << 30

var (
	phantomOnce  sync.Once
	phantomBlock []byte
	phantomErr   error
	// phantomBase is the block's address once mapped, 0 before. IsPhantom
	// reads it atomically, so callers that never asked for a phantom slice
	// do not race with the first one that does.
	phantomBase atomic.Uintptr
)

// Phantom returns a phantom slice of length n: it has no storage of its own
// (see IsPhantom). The block is mapped on first use. Phantom panics if n is
// negative or above PhantomMax, or if the mapping cannot be made.
func Phantom(n int) []byte {
	if n < 0 || n > PhantomMax {
		panic(fmt.Sprintf("bytepool: phantom slice of %d bytes exceeds the %d-byte phantom block", n, PhantomMax))
	}
	phantomOnce.Do(func() {
		phantomBlock, phantomErr = mapReadOnly(PhantomMax)
		if phantomErr == nil {
			phantomBase.Store(uintptr(unsafe.Pointer(unsafe.SliceData(phantomBlock))))
		}
	})
	if phantomErr != nil {
		panic(fmt.Sprintf("bytepool: mapping the phantom block: %v", phantomErr))
	}
	return phantomBlock[:n:n]
}

// IsPhantom reports whether b is a phantom slice or any window of one. It
// is a range check on b's data pointer, so a sub-slice at any offset of a
// phantom slice is phantom too. A zero-capacity slice is never phantom.
func IsPhantom(b []byte) bool {
	base := phantomBase.Load()
	return base != 0 && cap(b) > 0 &&
		uintptr(unsafe.Pointer(unsafe.SliceData(b)))-base < PhantomMax
}

// Copy is the simulation's one data copy: it copies min(len(dst), len(src))
// bytes like the built-in copy and returns that count. A copy between two
// phantom slices moves nothing and returns the count all the same. A copy
// that mixes a phantom slice with a backed one panics: a timing-only run
// handed its buffers to code that reads data, which is a programming error.
// A copy of zero bytes never panics.
func Copy(dst, src []byte) int {
	n := min(len(dst), len(src))
	if n == 0 {
		return 0
	}
	if p := IsPhantom(dst); p != IsPhantom(src) {
		panic(fmt.Sprintf("bytepool: copy of %d bytes mixes phantom and backed storage (dst phantom %v)", n, p))
	} else if p {
		return n
	}
	return copy(dst, src)
}

// Capture returns a private copy of b for an eager send, from the pool
// (hand it back with Put once consumed). A phantom b is returned as it is:
// it holds no bytes that a later write to the sender's buffer could change.
func Capture(b []byte) []byte {
	if IsPhantom(b) {
		return b
	}
	c := Get(len(b))
	copy(c, b)
	return c
}
