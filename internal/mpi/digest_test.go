package mpi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Golden digests of an 8-rank exchange. Every message protocol event, every
// tagged link charge (resource class and charging process name included),
// the delivered payloads and the final engine time are hashed in emission
// order, so any change to wire-transfer scheduling — a transfer sharing a
// link it should have waited for, a same-instant reordering, a renamed
// charge — changes the digest. The values were recorded from the
// goroutine-per-message transport and must never be edited to follow a
// change: a transport rewrite is correct only if it reproduces them.

// digestLog feeds message events and tagged link charges into one hash.
type digestLog struct {
	h hash.Hash
	n int
}

func (d *digestLog) MessageEvent(ev MsgEvent) {
	fmt.Fprintf(d.h, "msg %+v\n", ev)
	d.n++
}

func (d *digestLog) LinkBusy(link string, bytes int64, start, end sim.Time) {
	fmt.Fprintf(d.h, "link %s %d %d %d\n", link, bytes, start, end)
}

func (d *digestLog) LinkBusyTagged(link, tag, proc string, bytes int64, start, end sim.Time) {
	fmt.Fprintf(d.h, "charge %s %s %q %d %d %d\n", link, tag, proc, bytes, start, end)
}

// exchangeDigest runs the dense, collective and synchronous-send scenarios
// back to back on one 8-rank world and returns the stream digest and the
// number of message events hashed.
func exchangeDigest(t *testing.T, sys cluster.System) (string, int) {
	t.Helper()
	const n = 8
	e := sim.NewEngine()
	if sys.MaxNodes < n {
		sys.MaxNodes = n
	}
	clus := cluster.New(e, sys, n)
	d := &digestLog{h: sha256.New()}
	clus.Observe(d)
	w := NewWorld(clus)
	w.SetMsgObserver(d)
	outs := make([][]byte, n)
	w.LaunchRanks("digest", func(p *sim.Proc, ep *Endpoint) {
		out := &outs[ep.Rank()]
		denseExactBody(p, ep, w, out)
		collectiveBody(p, ep, w, out)
		ssendProbeBody(p, ep, w, out)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("%s: engine: %v", sys.Name, err)
	}
	for r, b := range outs {
		fmt.Fprintf(d.h, "out %d %x\n", r, sha256.Sum256(b))
	}
	fmt.Fprintf(d.h, "end %d\n", e.Now())
	return hex.EncodeToString(d.h.Sum(nil)), d.n
}

// TestExchangeDigestGolden pins the 8-rank exchange's event stream on every
// preset fabric.
func TestExchangeDigestGolden(t *testing.T) {
	golden := []struct {
		sys    cluster.System
		events int
		digest string
	}{
		{cluster.Cichlid(), 786, "82bd8fda6b6bccfaca4d082508e3c093d85ad1588000402e5d42f18654b69979"},
		{cluster.RICC(), 786, "d05329dc627ac1d7f7aebaea8aa0b9940313a906408ea5b93d1c1ce0da8aba23"},
		{cluster.Hopper(), 786, "0440ef12ad4c56e3b5b7f7a3ee7982003b16771a29c1bfc349ba63a80ff42678"},
	}
	for _, g := range golden {
		got, events := exchangeDigest(t, g.sys)
		if got != g.digest || events != g.events {
			t.Errorf("%s: digest %s over %d events, want %s over %d", g.sys.Name, got, events, g.digest, g.events)
		}
	}
}

// TestTransfersSpawnNoGoroutines checks that wire transfers are stackless:
// posting 1000 sends — eager ones, and rendezvous ones whose receives are
// already posted, so their data phases start at once — leaves the
// goroutine count where it was, and every message still arrives intact.
func TestTransfersSpawnNoGoroutines(t *testing.T) {
	const n = 1000
	e, w := rig(t, cluster.RICC(), 2)
	size := func(i int) int {
		if i%2 == 1 {
			return EagerThreshold + i // rendezvous
		}
		return 64 + i
	}
	grew := -1
	got := make([][]byte, n)
	w.LaunchRanks("g", func(p *sim.Proc, ep *Endpoint) {
		reqs := make([]*Request, n)
		if ep.Rank() == 1 {
			for i := range reqs {
				got[i] = make([]byte, size(i))
				reqs[i], _ = ep.Irecv(p, got[i], 0, i, Bytes, w.Comm())
			}
		} else {
			p.Sleep(time.Microsecond) // let every receive be posted first
			before := runtime.NumGoroutine()
			for i := range reqs {
				reqs[i], _ = ep.Isend(p, pattern(size(i), byte(i)), 1, i, Bytes, w.Comm())
			}
			grew = runtime.NumGoroutine() - before
		}
		if err := Waitall(p, reqs...); err != nil {
			t.Errorf("rank %d: %v", ep.Rank(), err)
		}
	})
	mustRun(t, e)
	if grew < 0 || grew >= 10 {
		t.Fatalf("goroutines grew by %d across %d sends, want < 10", grew, n)
	}
	for i, b := range got {
		if !bytes.Equal(b, pattern(size(i), byte(i))) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}
