package serve

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestMaxP2PJobStaysOffHeap runs p2p points at the largest message a job
// may ask for, one-shot and pipelined. A point reads only an elapsed time,
// so its 1 GiB device buffers are phantom and no byte moves: the heap
// allocation of the whole job must stay small. With backed buffers each
// point would allocate its two zeroed 1 GiB device buffers alone, which a
// daemon running a few such points at once cannot absorb.
func TestMaxP2PJobStaysOffHeap(t *testing.T) {
	spec := JobSpec{System: "ricc", Strategies: []string{"pinned", "pipelined"}, Sizes: []int64{maxP2PBytes}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, data, err := RunJob(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if pt.Bytes != maxP2PBytes || pt.MBps <= 0 {
			t.Fatalf("point %+v", pt)
		}
	}
	const budget = 16 << 20
	d := after.TotalAlloc - before.TotalAlloc
	if d > budget {
		t.Fatalf("1 GiB p2p job allocated %d MiB on the heap, budget %d MiB", d>>20, budget>>20)
	}
	t.Logf("1 GiB p2p job: %+v, %.2f MiB allocated", res.Points, float64(d)/(1<<20))
}
