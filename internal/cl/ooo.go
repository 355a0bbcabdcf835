package cl

import (
	"fmt"

	"repro/internal/sim"
)

// Out-of-order command queues (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE).
// Commands become eligible as soon as their wait list completes, with no
// implicit ordering between commands; explicit ordering uses events or
// barrier commands. The clMPI paper's applications use in-order queues, but
// the extension composes with out-of-order queues unchanged — a single OOO
// queue can express the Fig. 6 dataflow that needs three in-order queues.
//
// Each eligible command runs on its own worker process; the device's
// compute unit and PCIe links still serialize the hardware stages, so
// out-of-order execution reorders *scheduling*, not physics.

// OOQueue is an out-of-order command queue.
type OOQueue struct {
	ctx      *Context
	label    string
	released bool
	seq      int
	// barrier, when non-nil, is implicitly appended to the wait list of
	// every subsequently enqueued command (EnqueueBarrier semantics).
	barrier *Event
	// outstanding tracks events of all enqueued, not-yet-complete
	// commands, for Finish and markers.
	outstanding []*Event
	observer    Observer
}

// NewOutOfOrderQueue creates an out-of-order queue on the context's device.
func (c *Context) NewOutOfOrderQueue(label string) *OOQueue {
	return &OOQueue{ctx: c, label: label}
}

// Label reports the queue's diagnostic name.
func (q *OOQueue) Label() string { return q.label }

// Context returns the owning context.
func (q *OOQueue) Context() *Context { return q.ctx }

// SetObserver installs a lifecycle observer (nil to remove). The observer
// receives a nil *CommandQueue (there is no serial lane); lanes are better
// derived from the label.
func (q *OOQueue) SetObserver(o Observer) { q.observer = o }

// pending prunes completed events from the outstanding list and returns the
// remainder.
func (q *OOQueue) pending() []*Event {
	live := q.outstanding[:0]
	for _, ev := range q.outstanding {
		if ev.Status() != Complete {
			live = append(live, ev)
		}
	}
	q.outstanding = live
	return append([]*Event(nil), live...)
}

// Enqueue submits a command; it starts once every event in waits (plus any
// active barrier) has completed, regardless of enqueue order.
func (q *OOQueue) Enqueue(label string, waits []*Event, run func(p *sim.Proc) error) (*Event, error) {
	if q.released {
		return nil, ErrQueueShutDown
	}
	ev := newEvent(q.ctx, label, false)
	if ho := q.ctx.hostObs; ho != nil {
		if pn := q.ctx.eng.CurrentProcName(); pn != "" {
			ho.CommandEnqueued(pn, ev)
		}
	}
	allWaits := append([]*Event(nil), waits...)
	if q.barrier != nil {
		allWaits = append(allWaits, q.barrier)
	}
	q.seq++
	q.outstanding = append(q.outstanding, ev)
	q.ctx.eng.SpawnDaemon(fmt.Sprintf("clooq-%s-%d", q.label, q.seq), func(p *sim.Proc) {
		ev.markSubmitted(p.Now())
		if depErr := WaitForEvents(p, allWaits...); depErr != nil {
			ev.complete(p.Now(), fmt.Errorf("%w: dependency failed: %v", ErrExecStatusError, depErr))
			return
		}
		ev.markRunning(p.Now())
		if q.observer != nil {
			q.observer.CommandStarted(nil, label, p.Now())
		}
		err := run(p)
		if q.observer != nil {
			q.observer.CommandFinished(nil, label, p.Now())
			if co, ok := q.observer.(CausalObserver); ok {
				co.CommandCompleted(nil, ev, allWaits, p.Name())
			}
		}
		ev.complete(p.Now(), err)
	})
	return ev, nil
}

// EnqueueNDRangeKernel launches a kernel out of order; see
// CommandQueue.EnqueueNDRangeKernel for the cost model.
func (q *OOQueue) EnqueueNDRangeKernel(k *Kernel, args []any, waits []*Event) (*Event, error) {
	if err := q.ctx.checkKernel(k); err != nil {
		return nil, err
	}
	dev := q.ctx.Device
	return q.Enqueue("kernel "+k.Name, waits, func(wp *sim.Proc) error {
		return runKernel(wp, dev, k, args)
	})
}

// EnqueueMarker returns an event that completes when every command enqueued
// before it has completed (clEnqueueMarkerWithWaitList with an empty list).
func (q *OOQueue) EnqueueMarker() (*Event, error) {
	snapshot := q.pending()
	return q.Enqueue("marker", snapshot, func(p *sim.Proc) error { return nil })
}

// EnqueueBarrier inserts a scheduling barrier: every command enqueued after
// it waits for everything enqueued before it (clEnqueueBarrierWithWaitList).
func (q *OOQueue) EnqueueBarrier() (*Event, error) {
	ev, err := q.EnqueueMarker()
	if err != nil {
		return nil, err
	}
	q.barrier = ev
	return ev, nil
}

// Finish blocks until every command enqueued so far has completed.
func (q *OOQueue) Finish(p *sim.Proc) error {
	return WaitForEvents(p, q.pending()...)
}

// Shutdown rejects further enqueues; in-flight commands still complete.
func (q *OOQueue) Shutdown() { q.released = true }
