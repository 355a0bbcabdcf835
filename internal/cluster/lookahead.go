package cluster

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Conservative lookahead derivation for partitioned simulation.
//
// A partitioned run splits the world's nodes into contiguous per-shard
// ranges. The asynchronous conservative protocol (internal/sim/partition.go)
// needs, for every ordered shard pair (from, to), a positive lower bound
// L[from][to] on how far beyond shard from's clock any cross event it emits
// toward shard to can land. The bound comes straight from the modelled
// hardware: the balanced split puts every shard on its own non-empty set of
// nodes, so shards interact only across the fabric and no effect propagates
// faster than the NIC wire latency — which spec validation requires to be
// positive. The diagonal has no channel: L is +inf and never throttles
// anyone.

// InfLookahead marks a shard pair with no communication channel: the pair
// imposes no synchronization constraint at all.
const InfLookahead = time.Duration(math.MaxInt64)

// PartRange reports partition i's contiguous [lo, hi) slice of n ranks (and
// therefore nodes — ranks map to nodes one to one) under the balanced split
// used by partitioned worlds: boundaries at i*n/parts.
func PartRange(n, parts, i int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}

// LookaheadMatrix derives the conservative lookahead matrix for an n-node
// world split into `parts` balanced contiguous shards on sys: the wire
// latency off the diagonal, InfLookahead on it.
func LookaheadMatrix(sys System, n, parts int) [][]time.Duration {
	if parts < 1 {
		panic("cluster: lookahead matrix needs at least one partition")
	}
	if n < parts {
		panic(fmt.Sprintf("cluster: %d nodes cannot span %d partitions", n, parts))
	}
	cells := make([]time.Duration, parts*parts)
	la := make([][]time.Duration, parts)
	for from := range la {
		la[from] = cells[from*parts : (from+1)*parts : (from+1)*parts]
		for to := range la[from] {
			la[from][to] = sys.NIC.WireLatency
		}
		la[from][from] = InfLookahead
	}
	return la
}

// FormatLookaheadMatrix renders a lookahead matrix for human inspection
// (clmpi-sysinfo). Inf entries print as "-": the pair never constrains
// scheduling.
func FormatLookaheadMatrix(sys System, n int, la [][]time.Duration) string {
	k := len(la)
	var b strings.Builder
	fmt.Fprintf(&b, "Lookahead matrix L[from][to] (%s, %d nodes, %d partitions)\n", sys.Name, n, k)
	b.WriteString("L bounds how far shard `to` may run ahead of shard `from` barrier-free.\n")
	fmt.Fprintf(&b, "%8s", "")
	for to := 0; to < k; to++ {
		fmt.Fprintf(&b, "  %8s", fmt.Sprintf("to %d", to))
	}
	b.WriteByte('\n')
	minFinite := InfLookahead
	for from := 0; from < k; from++ {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("from %d", from))
		for to := 0; to < k; to++ {
			cell := "-"
			if d := la[from][to]; d != InfLookahead {
				cell = d.String()
				if d < minFinite {
					minFinite = d
				}
			}
			fmt.Fprintf(&b, "  %8s", cell)
		}
		b.WriteByte('\n')
	}
	if minFinite != InfLookahead {
		fmt.Fprintf(&b, "tightest channel: %v (the shortest stall any pair can impose)\n", minFinite)
	} else {
		b.WriteString("no communicating pairs: shards run fully independently\n")
	}
	return b.String()
}
