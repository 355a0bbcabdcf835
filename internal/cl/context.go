package cl

import (
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Device is a compute device: one of a node's GPUs. The paper's testbeds
// have one Tesla per node (NewDevice), but §IV-A's multiple-communicator-
// devices-per-process case is supported through NewDeviceForUnit on nodes
// extended with cluster.Node.AddGPU.
type Device struct {
	eng  *sim.Engine
	Node *cluster.Node
	Unit *cluster.GPUUnit
	name string

	allocated int64 // device memory accounting
}

// NewDevice wraps a cluster node's first GPU as an OpenCL-style device.
func NewDevice(e *sim.Engine, node *cluster.Node) *Device {
	return NewDeviceForUnit(e, node, node.GPUs[0])
}

// NewDeviceForUnit wraps a specific GPU unit of the node.
func NewDeviceForUnit(e *sim.Engine, node *cluster.Node, unit *cluster.GPUUnit) *Device {
	return &Device{
		eng: e, Node: node, Unit: unit,
		name: fmt.Sprintf("dev%d.%d(%s)", node.Index, unit.Index, node.Sys.GPU.Model),
	}
}

// HostToDevice charges a host→device copy on this device's PCIe slot.
func (d *Device) HostToDevice(p *sim.Proc, n int64, kind cluster.HostMemKind) {
	d.Node.HostToDeviceOn(d.Unit, p, n, kind)
}

// DeviceToHost charges a device→host copy on this device's PCIe slot.
func (d *Device) DeviceToHost(p *sim.Proc, n int64, kind cluster.HostMemKind) {
	d.Node.DeviceToHostOn(d.Unit, p, n, kind)
}

// Name reports a diagnostic device name.
func (d *Device) Name() string { return d.name }

// GlobalMemSize reports the device memory capacity in bytes.
func (d *Device) GlobalMemSize() int64 { return d.Node.Sys.GPU.MemBytes }

// AllocatedBytes reports currently allocated device memory.
func (d *Device) AllocatedBytes() int64 { return d.allocated }

// Context owns resources — buffers, queues, events — for one device, like a
// cl_context. (Multi-device shared contexts, which §II of the paper argues
// against for inter-node sharing, are intentionally unsupported.)
type Context struct {
	eng    *sim.Engine
	Device *Device
	label  string

	queues   []*CommandQueue
	released bool
	// timingOnly gives buffers and host staging phantom storage (see
	// NewTimingContext).
	timingOnly bool

	// hostObs, when set, is notified of host-thread interactions with the
	// event graph (enqueues and wait returns); dependency-graph builders use
	// it to recover host program order, which OpenCL's event DAG does not
	// express.
	hostObs HostObserver
}

// HostObserver receives host-thread causal notifications from a context:
// which simulated process enqueued each command, and when a process's Wait
// on an event returned. Together these recover host program order — the
// serialization imposed by the application thread itself rather than by
// queues or wait lists — which critical-path analysis needs to connect
// command chains that share no event dependency.
type HostObserver interface {
	// CommandEnqueued reports that process proc enqueued the command whose
	// completion ev tracks. It runs before the command can execute.
	CommandEnqueued(proc string, ev *Event)
	// WaitReturned reports that process proc's Wait on ev returned.
	WaitReturned(proc string, ev *Event)
}

// SetHostObserver installs a host-thread observer (nil to remove).
func (c *Context) SetHostObserver(o HostObserver) { c.hostObs = o }

// NewContext creates a context for the device.
func NewContext(d *Device, label string) *Context {
	return &Context{eng: d.eng, Device: d, label: label}
}

// NewTimingContext creates a timing-only context: its buffers and host
// staging have a length and no storage (bytepool.Phantom), so commands
// charge the same virtual time as in a NewContext context while copying
// nothing. Virtual time never reads data, so a caller that reads only
// times — a figure point — needs nothing more. Kernels launched on it must
// have a nil Work, and host code must not write its buffers.
func NewTimingContext(d *Device, label string) *Context {
	return &Context{eng: d.eng, Device: d, label: label, timingOnly: true}
}

// TimingOnly reports whether the context was made by NewTimingContext.
func (c *Context) TimingOnly() bool { return c.timingOnly }

// HostBuffer returns an n-byte host staging slice in the context's mode:
// pooled memory with arbitrary contents, or a phantom slice in a
// timing-only context. Either may be handed back with bytepool.Put.
func (c *Context) HostBuffer(n int) []byte {
	if c.timingOnly {
		return bytepool.Phantom(n)
	}
	return bytepool.Get(n)
}

// Engine returns the simulation engine the context runs on.
func (c *Context) Engine() *sim.Engine { return c.eng }

// Label reports the context's diagnostic name.
func (c *Context) Label() string { return c.label }
