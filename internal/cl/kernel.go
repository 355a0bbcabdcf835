package cl

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Kernel is a compute kernel: real Go code that transforms buffer contents,
// plus a cost model that decides how long the device is occupied. Expressing
// kernels this way keeps results bit-checkable by tests while the virtual
// clock still reflects GPU-speed execution.
type Kernel struct {
	// Name identifies the kernel in traces and errors.
	Name string
	// FLOPs reports the floating-point work of one launch given its
	// arguments; the device's sustained rate converts it to time. Exactly
	// one of FLOPs and Cost must be set.
	FLOPs func(args []any) float64
	// Cost directly reports the execution time of one launch.
	Cost func(args []any) time.Duration
	// Work performs the kernel's effect on the argument buffers. It runs
	// at command completion, so host observers never see partial results.
	// A nil Work models a pure-cost kernel; a timing-only context accepts
	// only those.
	Work func(args []any) error
}

// EnqueueNDRangeKernel launches the kernel with the given arguments,
// charging the launch overhead and occupying the device's compute unit for
// the modelled duration. Like hardware of the paper's era, kernels from
// different queues of one device serialize on the compute unit.
func (q *CommandQueue) EnqueueNDRangeKernel(k *Kernel, args []any, waits []*Event) (*Event, error) {
	if err := q.ctx.checkKernel(k); err != nil {
		return nil, err
	}
	dev := q.ctx.Device
	label := "kernel " + k.Name
	return q.Enqueue(label, waits, func(wp *sim.Proc) error {
		return runKernel(wp, dev, k, args)
	})
}

// checkKernel validates a launch on the context: exactly one cost model,
// and no Work in a timing-only context, whose buffers hold no data.
func (c *Context) checkKernel(k *Kernel) error {
	if k == nil || (k.FLOPs == nil) == (k.Cost == nil) {
		return fmt.Errorf("%w: kernel must define exactly one of FLOPs and Cost", ErrInvalidKernel)
	}
	if c.timingOnly && k.Work != nil {
		return fmt.Errorf("%w: kernel %s has a Work function but the context is timing-only", ErrInvalidKernel, k.Name)
	}
	return nil
}

// runKernel executes one launch on the worker process: launch overhead,
// exclusive occupancy of the device's compute unit for the modelled
// duration, then the kernel's real effect on the buffers.
func runKernel(wp *sim.Proc, dev *Device, k *Kernel, args []any) error {
	g := dev.Node.Sys.GPU
	wp.Sleep(g.KernelLaunch)
	var d time.Duration
	if k.Cost != nil {
		d = k.Cost(args)
	} else {
		d = secondsToDur(k.FLOPs(args) / (g.SustainedGFLOPS * 1e9))
	}
	if d < 0 {
		return fmt.Errorf("%w: negative kernel cost %v", ErrInvalidKernel, d)
	}
	dev.Unit.GPUCompute.OccupyTagged(wp, d, "compute", 0)
	if k.Work != nil {
		if err := k.Work(args); err != nil {
			return fmt.Errorf("kernel %s: %w", k.Name, err)
		}
	}
	return nil
}
