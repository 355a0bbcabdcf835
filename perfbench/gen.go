package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// The serve workload's request stream: a Zipf-popular stream of picks from a
// catalogue of distinct job specs. The catalogue is the same for every seed;
// the seed fixes which spec holds each popularity rank and the stream of
// picks, so another seed gives another stream with the same family mix, the
// same popularity law and the same total cost. The daemon sees only the
// generated request bodies.

// genConfig shapes the catalogue and the stream.
type genConfig struct {
	catalogue int     // distinct job specs
	zipfS     float64 // Zipf exponent of spec popularity
	streamLen int     // jobs in the stream
	// Family shares of the catalogue, in percent: p2p, himeno; the rest
	// is matchscale.
	p2pPct, himenoPct int
}

// defaultGen is the serve workload's stream: a catalogue six times the
// daemon's cache, so the popular head hits and the tail evicts. Its figures
// (the Zipf exponent, the family mix, the catalogue-to-cache ratio, and the
// spec ranges in randomSpec) are assumptions, not measurements: there is no
// trace of real daemon traffic to fit them to. README.md lists them.
func defaultGen() genConfig {
	return genConfig{catalogue: 768, zipfS: 1.1, streamLen: 1 << 17, p2pPct: 60, himenoPct: 25}
}

// job is one catalogue entry.
type job struct {
	family string // "p2p", "himeno" or "matchscale"
	body   []byte // the request body POSTed to /v1/jobs
}

// stream is a seeded catalogue and the sequence of catalogue indices the
// clients submit, in order.
type stream struct {
	jobs  []job
	picks []int32
}

// genSpec mirrors the serve job fields the generator sets; keeping its own
// type means the daemon's decoder, not the generator, is what reads them.
type genSpec struct {
	System     string   `json:"system"`
	Workload   string   `json:"workload,omitempty"`
	Strategies []string `json:"strategies,omitempty"`
	Sizes      []int64  `json:"sizes,omitempty"`
	Impls      []string `json:"impls,omitempty"`
	Nodes      []int    `json:"nodes,omitempty"`
	Size       string   `json:"size,omitempty"`
	Iters      int      `json:"iters,omitempty"`
	Ranks      []int    `json:"ranks,omitempty"`
}

var (
	genSystems    = []string{"cichlid", "ricc", "ricc-verbs", "hopper"}
	genStrategies = []string{"pinned", "mapped", "pipelined(1)", "pipelined(2)", "pipelined(4)"}
	genImpls      = []string{"serial", "hand-optimized", "clMPI", "gpu-aware-mpi", "clMPI-ooo"}
)

// randomSpec draws one spec of the given family. p2p sizes are log-uniform
// over 64 KiB .. 16 MiB in 4 KiB steps; himeno is size XS on 1-4 nodes for
// 1-4 iterations; matchscale is one point of 16-160 ranks.
func randomSpec(rng *rand.Rand, family string) genSpec {
	sys := genSystems[rng.Intn(len(genSystems))]
	switch family {
	case "p2p":
		exp := 16 + rng.Float64()*8 // 2^16 .. 2^24 bytes
		size := int64(1<<uint(exp)) * int64(1000+rng.Intn(1000)) / 1000
		size = max(64<<10, size/4096*4096)
		return genSpec{System: sys, Strategies: []string{genStrategies[rng.Intn(len(genStrategies))]}, Sizes: []int64{size}}
	case "himeno":
		return genSpec{System: sys, Workload: "himeno", Impls: []string{genImpls[rng.Intn(len(genImpls))]},
			Nodes: []int{1 + rng.Intn(4)}, Size: "XS", Iters: 1 + rng.Intn(4)}
	default:
		return genSpec{System: sys, Workload: "matchscale", Ranks: []int{16 + 4*rng.Intn(37)}}
	}
}

// costProxy orders the specs of one family by their expected simulation
// cost: bytes moved, Himeno node-iterations, or ranks.
func costProxy(s genSpec) float64 {
	switch {
	case len(s.Sizes) > 0:
		return float64(s.Sizes[0])
	case len(s.Nodes) > 0:
		return float64(s.Nodes[0] * s.Iters)
	case len(s.Ranks) > 0:
		return float64(s.Ranks[0])
	}
	return 0
}

// genStrata is how many cost strata each family's specs are dealt from.
const genStrata = 8

// catalogueSeed draws the catalogue, which every workload seed shares.
const catalogueSeed = 1

// generate builds the seed's stream. Popularity is Zipf over ranks; which
// spec holds each rank is seeded but stratified, so every seed puts the same
// mix of families and of cheap and costly specs at each popularity level,
// and the cost of the misses in the cache's tail does not depend on the
// seed's luck.
func generate(cfg genConfig, seed int64) (*stream, error) {
	cat := rand.New(rand.NewSource(catalogueSeed))
	rng := rand.New(rand.NewSource(seed))
	counts := map[string]int{
		"p2p":    cfg.catalogue * cfg.p2pPct / 100,
		"himeno": cfg.catalogue * cfg.himenoPct / 100,
	}
	counts["matchscale"] = cfg.catalogue - counts["p2p"] - counts["himeno"]
	families := []string{"p2p", "himeno", "matchscale"}
	seen := map[string]bool{}
	dealt := map[string][]job{} // per family, in popularity order
	for _, family := range families {
		specs := make([]genSpec, 0, counts[family])
		for len(specs) < counts[family] {
			for tries := 0; ; tries++ {
				spec := randomSpec(cat, family)
				b, err := json.Marshal(spec)
				if err != nil {
					return nil, err
				}
				if !seen[string(b)] {
					seen[string(b)] = true
					specs = append(specs, spec)
					break
				}
				if tries > 1000 {
					return nil, fmt.Errorf("gen: cannot find %d distinct %s specs", counts[family], family)
				}
			}
		}
		// Deal round-robin from cost strata, each shuffled by the seed.
		sort.SliceStable(specs, func(i, j int) bool { return costProxy(specs[i]) < costProxy(specs[j]) })
		strata := make([][]genSpec, genStrata)
		for i, spec := range specs {
			k := i * genStrata / len(specs)
			strata[k] = append(strata[k], spec)
		}
		for _, st := range strata {
			rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
		}
		for i := 0; len(dealt[family]) < len(specs); i++ {
			if st := strata[i%genStrata]; len(st) > 0 {
				b, _ := json.Marshal(st[0])
				dealt[family] = append(dealt[family], job{family: family, body: b})
				strata[i%genStrata] = st[1:]
			}
		}
	}
	// Interleave the families in proportion to their counts: popularity
	// rank k goes to the family furthest behind its share.
	s := &stream{}
	taken := map[string]int{}
	for len(s.jobs) < cfg.catalogue {
		best, bestLag := "", -1.0
		for _, f := range families {
			if taken[f] == counts[f] {
				continue
			}
			lag := float64(len(s.jobs)+1)*float64(counts[f])/float64(cfg.catalogue) - float64(taken[f])
			if lag > bestLag {
				best, bestLag = f, lag
			}
		}
		s.jobs = append(s.jobs, dealt[best][taken[best]])
		taken[best]++
	}
	// s.jobs is in popularity order; the stream draws ranks from Zipf.
	z := rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(s.jobs)-1))
	s.picks = make([]int32, cfg.streamLen)
	for i := range s.picks {
		s.picks[i] = int32(z.Uint64())
	}
	return s, nil
}
