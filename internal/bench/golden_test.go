package bench

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// TestMatchScaleGolden pins the matching-scaling sweep's virtual-time
// figures — completion time, message count and peak queue depths — on every
// preset, serial and 4-way partitioned. The values were recorded from the
// goroutine-per-message transport; any rewrite of the wire path must
// reproduce them exactly (a transfer that shares a link it should have
// waited for moves SimMS and the unexpected-queue peak).
func TestMatchScaleGolden(t *testing.T) {
	const out, wild, rounds = 8, 25, 2
	golden := []struct {
		sys      func() cluster.System
		ranks    int
		parts    int
		simMS    string
		messages int
		postedHW int
		unexpHW  int
	}{
		{cluster.Cichlid, 64, 0, "1.155104", 1024, 8, 8},
		{cluster.Cichlid, 64, 4, "1.334520", 1024, 8, 9},
		{cluster.Cichlid, 512, 0, "1.485152", 8192, 8, 8},
		{cluster.Cichlid, 512, 4, "1.664568", 8192, 8, 9},
		{cluster.RICC, 64, 0, "0.675136", 1024, 8, 8},
		{cluster.RICC, 64, 4, "0.780528", 1024, 8, 9},
		{cluster.RICC, 512, 0, "0.873136", 8192, 8, 8},
		{cluster.RICC, 512, 4, "0.978528", 8192, 8, 9},
		{cluster.Hopper, 64, 0, "0.042080", 1024, 8, 8},
		{cluster.Hopper, 64, 4, "0.045590", 1024, 8, 9},
		{cluster.Hopper, 512, 0, "0.057080", 8192, 8, 8},
		{cluster.Hopper, 512, 4, "0.060590", 8192, 8, 9},
	}
	for _, g := range golden {
		sys := g.sys()
		t.Run(fmt.Sprintf("%s/%d/parts=%d", sys.Name, g.ranks, g.parts), func(t *testing.T) {
			pt, err := MatchScalePoint(sys, g.ranks, out, wild, rounds, g.parts, 2)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%.6f", pt.SimMS)
			if got != g.simMS || pt.Messages != g.messages || pt.MaxPostedHW != g.postedHW || pt.MaxUnexpectedHW != g.unexpHW {
				t.Errorf("got {%s, %q, %d, %d, %d}, want {%q, %d, %d, %d}",
					sys.Name, got, pt.Messages, pt.MaxPostedHW, pt.MaxUnexpectedHW,
					g.simMS, g.messages, g.postedHW, g.unexpHW)
			}
		})
	}
}
