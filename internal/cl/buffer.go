package cl

import (
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/cluster"
)

// Buffer is a device memory object (cl_mem). Its bytes live in host RAM of
// the simulating process, but virtual-time charges model them as resident in
// the GPU's memory: host access goes through the PCIe cost model. In a
// timing-only context the bytes are phantom: read-only zeros that no copy
// moves.
type Buffer struct {
	ctx      *Context
	label    string
	data     []byte
	mapped   bool
	mapOff   int64
	mapLen   int64
	mapWrite bool
	released bool
	parent   *Buffer // non-nil for sub-buffers (see CreateSubBuffer)
	// hasSub records that a sub-buffer was ever created over this buffer's
	// storage. Sub-buffers alias data with independent slice headers, so a
	// parent with sub-buffers can never return its block to the pool.
	hasSub bool
}

// CreateBuffer allocates size bytes of device memory. It fails with
// ErrOutOfResources when the device's memory capacity would be exceeded —
// the constraint that motivates the paper's rejection of cross-node shared
// contexts (§II).
func (c *Context) CreateBuffer(label string, size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: buffer size %d", ErrInvalidValue, size)
	}
	d := c.Device
	if d.allocated+size > d.GlobalMemSize() {
		return nil, fmt.Errorf("%w: %d bytes requested, %d of %d in use",
			ErrOutOfResources, size, d.allocated, d.GlobalMemSize())
	}
	if c.timingOnly {
		if size > bytepool.PhantomMax {
			return nil, fmt.Errorf("%w: timing-only buffer of %d bytes exceeds the %d-byte phantom block",
				ErrOutOfResources, size, bytepool.PhantomMax)
		}
		d.allocated += size
		return &Buffer{ctx: c, label: label, data: bytepool.Phantom(int(size))}, nil
	}
	d.allocated += size
	// Backing bytes come from the shared pool: a sweep re-creating the same
	// device buffers thousands of times recycles the same blocks instead of
	// re-allocating (and re-zeroing via GC) them each point.
	return &Buffer{ctx: c, label: label, data: bytepool.GetZero(int(size))}, nil
}

// MustCreateBuffer is CreateBuffer that panics on error, for examples and
// tests where allocation cannot fail.
func (c *Context) MustCreateBuffer(label string, size int64) *Buffer {
	b, err := c.CreateBuffer(label, size)
	if err != nil {
		panic(err)
	}
	return b
}

// Size reports the buffer capacity in bytes.
func (b *Buffer) Size() int64 { return int64(len(b.data)) }

// Label reports the buffer's diagnostic name.
func (b *Buffer) Label() string { return b.label }

// Context returns the owning context.
func (b *Buffer) Context() *Context { return b.ctx }

// Release frees the device memory. Further use of the buffer fails with
// ErrReleasedObject. Releasing twice is an error, as in OpenCL where the
// reference count would go negative. Releasing a sub-buffer never affects
// the parent's allocation.
func (b *Buffer) Release() error {
	if b.released {
		return ErrReleasedObject
	}
	b.released = true
	if b.parent == nil {
		b.ctx.Device.allocated -= int64(len(b.data))
		if !b.hasSub && !b.mapped {
			// No sub-buffer or mapped region can alias the block: recycle
			// it. Dropping the reference also makes stale post-release
			// Bytes() use fail loudly instead of reading pooled memory.
			bytepool.Put(b.data)
			b.data = nil
		}
	}
	return nil
}

// Bytes exposes the raw device bytes for kernels and for the verification
// paths of tests (a phantom slice in a timing-only context). Simulation code
// that is *modelling host access* must not use it directly — that is what
// Read/Write/Map commands with their PCIe charges are for.
func (b *Buffer) Bytes() []byte { return b.data }

// check validates the buffer and an access window.
func (b *Buffer) check(offset, size int64) error {
	if b == nil {
		return ErrInvalidBuffer
	}
	if b.released {
		return ErrReleasedObject
	}
	return rangeCheck(offset, size, int64(len(b.data)))
}

// node and device report the owning hardware.
func (b *Buffer) node() *cluster.Node { return b.ctx.Device.Node }
func (b *Buffer) device() *Device     { return b.ctx.Device }
