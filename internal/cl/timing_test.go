package cl

import (
	"errors"
	"testing"

	"repro/internal/bytepool"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestTimingContextChargesLikeBacked runs one command of every data-moving
// kind on a backed and on a timing-only context: the virtual time must be
// the same, and the timing-only buffers and staging must be phantom.
func TestTimingContextChargesLikeBacked(t *testing.T) {
	const n = 1 << 20
	elapsed := func(newContext func(*Device, string) *Context) sim.Time {
		e := sim.NewEngine()
		c := cluster.New(e, cluster.Cichlid(), 1)
		ctx := newContext(NewDevice(e, c.Nodes[0]), "t")
		q := ctx.NewQueue("q")
		a, b := ctx.MustCreateBuffer("a", n), ctx.MustCreateBuffer("b", n)
		host := ctx.HostBuffer(n)
		if got := bytepool.IsPhantom(a.Bytes()) && bytepool.IsPhantom(host); got != ctx.TimingOnly() {
			t.Fatalf("timing-only %v, phantom storage %v", ctx.TimingOnly(), got)
		}
		var end sim.Time
		run(t, e, func(p *sim.Proc) {
			if _, err := q.EnqueueWriteBuffer(p, a, false, 0, n, host, cluster.Pinned, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := q.EnqueueCopyBuffer(a, b, 0, 0, n, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := q.EnqueueFillBuffer(b, []byte{1, 2}, 16, 64, nil); err != nil {
				t.Error(err)
				return
			}
			k := &Kernel{Name: "k", FLOPs: func([]any) float64 { return 1e9 }}
			if _, err := q.EnqueueNDRangeKernel(k, nil, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := q.EnqueueReadBuffer(p, b, true, 3, n-3, host, cluster.Pageable, nil); err != nil {
				t.Error(err)
				return
			}
			end = p.Now()
		})
		bytepool.Put(host)
		return end
	}
	if backed, timing := elapsed(NewContext), elapsed(NewTimingContext); backed != timing {
		t.Fatalf("timing-only context took %v, backed %v", timing, backed)
	}
}

func TestTimingContextRejects(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e, cluster.Cichlid(), 1)
	ctx := NewTimingContext(NewDevice(e, c.Nodes[0]), "t")
	if _, err := ctx.CreateBuffer("huge", bytepool.PhantomMax+1); !errors.Is(err, ErrOutOfResources) {
		t.Errorf("buffer beyond the phantom block: %v", err)
	}
	if got := ctx.Device.AllocatedBytes(); got != 0 {
		t.Errorf("refused buffer left %d bytes allocated", got)
	}
	k := &Kernel{Name: "k", FLOPs: func([]any) float64 { return 1 }, Work: func([]any) error { return nil }}
	if _, err := ctx.NewQueue("q").EnqueueNDRangeKernel(k, nil, nil); !errors.Is(err, ErrInvalidKernel) {
		t.Errorf("kernel with Work on a timing-only context: %v", err)
	}
	if _, err := ctx.NewOutOfOrderQueue("o").EnqueueNDRangeKernel(k, nil, nil); !errors.Is(err, ErrInvalidKernel) {
		t.Errorf("kernel with Work on a timing-only out-of-order queue: %v", err)
	}
}
