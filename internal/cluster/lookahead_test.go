package cluster

import (
	"fmt"
	"testing"
	"time"
)

// TestLookaheadMatrixGolden pins the derived matrix — and its rendering —
// for every built-in preset at a 4-way split of the full system. The
// balanced split puts each shard on disjoint nodes, so every finite entry
// must be exactly the preset's wire latency; a change here means either a
// preset's NIC model moved or the derivation regressed.
func TestLookaheadMatrixGolden(t *testing.T) {
	goldens := map[string]string{
		"cichlid": `Lookahead matrix L[from][to] (Cichlid, 4 nodes, 4 partitions)
L bounds how far shard ` + "`to`" + ` may run ahead of shard ` + "`from`" + ` barrier-free.
              to 0      to 1      to 2      to 3
  from 0         -      30µs      30µs      30µs
  from 1      30µs         -      30µs      30µs
  from 2      30µs      30µs         -      30µs
  from 3      30µs      30µs      30µs         -
tightest channel: 30µs (the shortest stall any pair can impose)
`,
		"ricc": `Lookahead matrix L[from][to] (RICC, 100 nodes, 4 partitions)
L bounds how far shard ` + "`to`" + ` may run ahead of shard ` + "`from`" + ` barrier-free.
              to 0      to 1      to 2      to 3
  from 0         -      18µs      18µs      18µs
  from 1      18µs         -      18µs      18µs
  from 2      18µs      18µs         -      18µs
  from 3      18µs      18µs      18µs         -
tightest channel: 18µs (the shortest stall any pair can impose)
`,
		"ricc-verbs": `Lookahead matrix L[from][to] (RICC-verbs, 100 nodes, 4 partitions)
L bounds how far shard ` + "`to`" + ` may run ahead of shard ` + "`from`" + ` barrier-free.
              to 0      to 1      to 2      to 3
  from 0         -       5µs       5µs       5µs
  from 1       5µs         -       5µs       5µs
  from 2       5µs       5µs         -       5µs
  from 3       5µs       5µs       5µs         -
tightest channel: 5µs (the shortest stall any pair can impose)
`,
		"hopper": `Lookahead matrix L[from][to] (Hopper, 128 nodes, 4 partitions)
L bounds how far shard ` + "`to`" + ` may run ahead of shard ` + "`from`" + ` barrier-free.
              to 0      to 1      to 2      to 3
  from 0         -       2µs       2µs       2µs
  from 1       2µs         -       2µs       2µs
  from 2       2µs       2µs         -       2µs
  from 3       2µs       2µs       2µs         -
tightest channel: 2µs (the shortest stall any pair can impose)
`,
	}
	for name, want := range goldens {
		t.Run(name, func(t *testing.T) {
			sys, err := Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			n := sys.MaxNodes
			got := FormatLookaheadMatrix(sys, n, LookaheadMatrix(sys, n, 4))
			if got != want {
				t.Errorf("matrix rendering changed:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// minCrossDelay is the ground truth the derivation must stay below: the
// smallest virtual-time distance any single hop between a node of shard
// `from` and a node of shard `to` can cover — DMA descriptor latency when
// the two ranks share a node, wire latency otherwise.
func minCrossDelay(sys System, from, to [2]int) time.Duration {
	best := InfLookahead
	for a := from[0]; a < from[1]; a++ {
		for b := to[0]; b < to[1]; b++ {
			d := sys.NIC.WireLatency
			if a == b {
				d = sys.GPU.DMALatency
			}
			if d < best {
				best = d
			}
		}
	}
	return best
}

// TestLookaheadConservatism is the safety property behind the whole
// asynchronous protocol: every finite matrix entry must be at most the true
// minimum cross-shard propagation delay, across a grid of balanced splits.
// An entry above the true minimum would let a shard run past an event that
// can still reach it.
func TestLookaheadConservatism(t *testing.T) {
	for name, mk := range map[string]func() System{
		"cichlid": Cichlid, "ricc": RICC,
	} {
		sys := mk()
		// Balanced splits across a grid of world sizes and shard counts.
		for n := 1; n <= 12; n++ {
			for parts := 1; parts <= n; parts++ {
				la := LookaheadMatrix(sys, n, parts)
				ranges := make([][2]int, parts)
				for i := range ranges {
					ranges[i][0], ranges[i][1] = PartRange(n, parts, i)
				}
				checkConservative(t, fmt.Sprintf("%s/n%d/parts%d", name, n, parts), sys, ranges, la)
			}
		}
	}
}

func checkConservative(t *testing.T, label string, sys System, ranges [][2]int, la [][]time.Duration) {
	t.Helper()
	for from := range ranges {
		for to := range ranges {
			got := la[from][to]
			if from == to {
				if got != InfLookahead {
					t.Fatalf("%s: diagonal L[%d][%d] = %v, want inf", label, from, to, got)
				}
				continue
			}
			truth := minCrossDelay(sys, ranges[from], ranges[to])
			if truth == InfLookahead {
				if got != InfLookahead {
					t.Fatalf("%s: L[%d][%d] = %v for a non-communicating pair %v/%v",
						label, from, to, got, ranges[from], ranges[to])
				}
				continue
			}
			if got == InfLookahead {
				t.Fatalf("%s: L[%d][%d] is inf but the pair %v/%v communicates (min delay %v)",
					label, from, to, ranges[from], ranges[to], truth)
			}
			if got > truth {
				t.Fatalf("%s: L[%d][%d] = %v exceeds the true minimum delay %v for %v/%v — not conservative",
					label, from, to, got, truth, ranges[from], ranges[to])
			}
			if got <= 0 {
				t.Fatalf("%s: L[%d][%d] = %v must be positive", label, from, to, got)
			}
		}
	}
}

// TestPartRange pins the balanced-split contract owner() inverts: ranges
// tile [0, n) in order and never differ in size by more than one.
func TestPartRange(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for parts := 1; parts <= n; parts++ {
			prev, minSz, maxSz := 0, n, 0
			for i := 0; i < parts; i++ {
				lo, hi := PartRange(n, parts, i)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d parts=%d: range %d = [%d,%d) does not tile (prev end %d)", n, parts, i, lo, hi, prev)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d parts=%d: ranges end at %d", n, parts, prev)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("n=%d parts=%d: imbalance %d vs %d", n, parts, minSz, maxSz)
			}
		}
	}
}
