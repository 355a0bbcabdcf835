package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
	"repro/internal/serve"
)

// runProbes times single public calls of the numeric, transfer and serve
// layers. Every traced run makes them, after its profiled window, so a
// layer's probe can be compared across workloads: a change to that layer
// should move it everywhere, while the workload's own figures move only
// where the layer is on the critical path.
func runProbes(o options, r *report, tr *tracer) {
	root, end := tr.begin(0, "bench", "probes")
	defer end()
	timeN := func(n int, layer, name string, fn func() error) []float64 {
		var out []float64
		for i := 0; i < n; i++ {
			start := time.Now()
			err := tr.do(root, layer, name, func(int) error { return fn() })
			d := time.Since(start).Seconds()
			if err != nil {
				r.fail(fmt.Errorf("probe %s: %w", name, err))
				continue
			}
			out = append(out, d)
		}
		return out
	}

	// himeno: the host reference solver's per-cell cost at size S.
	const hIters = 2
	cells := float64(himeno.SizeS.InteriorCells() * hIters)
	ref := timeN(5, "himeno", "himeno.Reference", func() error {
		if _, gosa := himeno.Reference(himeno.SizeS, hIters, himeno.OfficialInit); gosa <= 0 {
			return fmt.Errorf("himeno reference gosa %g", gosa)
		}
		return nil
	})
	r.set("himeno.kernel_ns_per_cell", median(ref)*1e9/cells, fmt.Sprintf("himeno.Reference size S, %d iters, median of %d", hIters, len(ref)))

	// nanopowder: the host reference at the verification size.
	np := timeN(5, "nanopowder", "nanopowder.Reference", func() error {
		if cells := nanopowder.Reference(verifyParams); len(cells) != verifyParams.Cells {
			return fmt.Errorf("nanopowder reference has %d cells, want %d", len(cells), verifyParams.Cells)
		}
		return nil
	})
	r.set("nanopowder.reference_s", median(np), fmt.Sprintf("median of %d", len(np)))

	// xfer/cl/clmpi: one Fig. 8 point, RICC pipelined(4) at 4 MiB.
	p2p := timeN(7, "xfer", "bench.MeasureP2P", func() error {
		bw, err := bench.MeasureP2P(cluster.RICC(), clmpi.Pipelined, 4<<20, 4<<20)
		if err == nil && bw <= 0 {
			err = fmt.Errorf("bandwidth %g", bw)
		}
		return err
	})
	r.set("xfer.p2p_host_ms", median(p2p)*1e3, fmt.Sprintf("median of %d", len(p2p)))

	// serve: decode+normalize+hash of request bodies, and the LRU cache.
	st, err := generate(defaultGen(), o.seed)
	if err != nil {
		r.fail(err)
		return
	}
	n := min(256, len(st.jobs))
	var hashes []string
	dec := timeN(n, "serve", "serve.Decode+Hash", func() error {
		_, h, err := serve.Decode(st.jobs[len(hashes)].body)
		hashes = append(hashes, h)
		return err
	})
	r.set("serve.decode_hash_us", median(dec)*1e6, fmt.Sprintf("median of %d bodies", len(dec)))
	cache, err := serve.NewCache(serveCacheEntries, "")
	if err != nil {
		r.fail(err)
		return
	}
	doc := make([]byte, 1024)
	i := 0
	put := timeN(len(hashes), "serve", "serve.Cache.Put", func() error {
		i++
		return cache.Put(hashes[i-1], doc)
	})
	i = len(hashes) - serveCacheEntries
	get := timeN(serveCacheEntries, "serve", "serve.Cache.Get", func() error {
		i++
		if _, ok := cache.Get(hashes[i-1]); !ok {
			return fmt.Errorf("cache lost a resident entry")
		}
		return nil
	})
	r.set("serve.cache_put_us", median(put)*1e6, fmt.Sprintf("median of %d", len(put)))
	r.set("serve.cache_get_us", median(get)*1e6, fmt.Sprintf("median of %d", len(get)))
}
