package main

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/serve"
)

// smallGen keeps the generator tests fast.
func smallGen() genConfig {
	cfg := defaultGen()
	cfg.streamLen = 1 << 15
	return cfg
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, err := generate(smallGen(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(smallGen(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.jobs) != len(b.jobs) || len(a.picks) != len(b.picks) {
		t.Fatal("same seed, different sizes")
	}
	for i := range a.jobs {
		if !bytes.Equal(a.jobs[i].body, b.jobs[i].body) {
			t.Fatalf("same seed, catalogue entry %d differs: %s vs %s", i, a.jobs[i].body, b.jobs[i].body)
		}
	}
	for i := range a.picks {
		if a.picks[i] != b.picks[i] {
			t.Fatalf("same seed, stream position %d differs", i)
		}
	}
}

// familyMix counts each family's share of the submitted stream.
func familyMix(s *stream) map[string]float64 {
	mix := map[string]float64{}
	for _, p := range s.picks {
		mix[s.jobs[p].family]++
	}
	for f := range mix {
		mix[f] /= float64(len(s.picks))
	}
	return mix
}

// headShare is the fraction of submissions that go to the k most requested
// specs: the popularity law, independent of which specs they are.
func headShare(s *stream, k int) float64 {
	counts := map[int32]int{}
	for _, p := range s.picks {
		counts[p]++
	}
	var c []int
	for _, n := range counts {
		c = append(c, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(c)))
	head := 0
	for i := 0; i < k && i < len(c); i++ {
		head += c[i]
	}
	return float64(head) / float64(len(s.picks))
}

func TestGeneratorSeedsDifferWithSameMix(t *testing.T) {
	a, err := generate(smallGen(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(smallGen(), 2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.jobs {
		if bytes.Equal(a.jobs[i].body, b.jobs[i].body) {
			same++
		}
	}
	if same > len(a.jobs)/10 {
		t.Errorf("seeds 1 and 2 share %d of %d catalogue positions", same, len(a.jobs))
	}
	diff := 0
	for i := range a.picks {
		if !bytes.Equal(a.jobs[a.picks[i]].body, b.jobs[b.picks[i]].body) {
			diff++
		}
	}
	if diff < len(a.picks)/2 {
		t.Errorf("seeds 1 and 2 submit the same job at %d of %d positions", len(a.picks)-diff, len(a.picks))
	}
	// The same catalogue, dealt to popularity ranks in another order.
	specs := func(s *stream) []string {
		var out []string
		for _, j := range s.jobs {
			out = append(out, string(j.body))
		}
		sort.Strings(out)
		return out
	}
	sa, sb := specs(a), specs(b)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("seeds 1 and 2 have different catalogues: %s vs %s", sa[i], sb[i])
		}
	}
	// Same catalogue mix exactly, same stream mix and head share closely.
	catMix := func(s *stream) map[string]int {
		m := map[string]int{}
		for _, j := range s.jobs {
			m[j.family]++
		}
		return m
	}
	ca, cb := catMix(a), catMix(b)
	for f, n := range ca {
		if cb[f] != n {
			t.Errorf("catalogue has %d %s specs for seed 1, %d for seed 2", n, f, cb[f])
		}
	}
	ma, mb := familyMix(a), familyMix(b)
	for _, f := range []string{"p2p", "himeno", "matchscale"} {
		if ma[f] == 0 || math.Abs(ma[f]-mb[f]) > 0.03 {
			t.Errorf("%s share of the stream: seed 1 %.3f, seed 2 %.3f", f, ma[f], mb[f])
		}
	}
	for _, k := range []int{10, serveCacheEntries} {
		if ha, hb := headShare(a, k), headShare(b, k); math.Abs(ha-hb) > 0.03 {
			t.Errorf("top-%d share: seed 1 %.3f, seed 2 %.3f", k, ha, hb)
		}
	}
}

// Every catalogue entry is a valid, distinct job for the daemon.
func TestGeneratorBodiesAreDistinctValidJobs(t *testing.T) {
	s, err := generate(smallGen(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.jobs) <= serveCacheEntries {
		t.Fatalf("catalogue of %d does not exceed the cache (%d)", len(s.jobs), serveCacheEntries)
	}
	hashes := map[string]int{}
	for i, j := range s.jobs {
		norm, h, err := serve.Decode(j.body)
		if err != nil {
			t.Fatalf("entry %d %s: %v", i, j.body, err)
		}
		if norm.Workload != j.family {
			t.Errorf("entry %d: family %s decodes as workload %s", i, j.family, norm.Workload)
		}
		if norm.NumPoints() != 1 {
			t.Errorf("entry %d: %d points, want one", i, norm.NumPoints())
		}
		if prev, dup := hashes[h]; dup {
			t.Errorf("entries %d and %d share content address %s", prev, i, h[:12])
		}
		hashes[h] = i
	}
}
