package bench

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
	"repro/internal/trace"
)

// TestTimingOnlyEquivalence pins the rule that virtual time never reads
// data: every figure point runs timing-only (phantom buffers, no kernel
// work), and must give exactly what the same point gives with its numerics
// on and real bytes moving. On every preset it runs each Fig. 8 cell traced,
// each Fig. 9 cell of the quick grid for all five Himeno implementations
// (plus one checkpointing run, which routes phantom data through the disk
// model), each Fig. 10 cell, and the three Fig. 4 traces, both ways. Result
// fields other than the numerics (Gosa, Grid, MassPerStep, Final) must be
// equal and the Chrome trace JSON byte-identical.
func TestTimingOnlyEquivalence(t *testing.T) {
	for _, name := range cluster.PresetNames() {
		sys := cluster.Systems()[name]
		t.Run(name, func(t *testing.T) {
			t.Run("fig8", func(t *testing.T) { fig8Equivalent(t, sys) })
			t.Run("fig9", func(t *testing.T) { fig9Equivalent(t, sys) })
			t.Run("fig10", func(t *testing.T) { fig10Equivalent(t, sys) })
			t.Run("fig4", func(t *testing.T) { fig4Equivalent(t, sys) })
		})
	}
}

// chromeJSON renders a tracer's bus as Chrome trace_event JSON.
func chromeJSON(t *testing.T, trc *trace.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trc.Bus().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fig8Equivalent(t *testing.T, sys cluster.System) {
	for _, im := range Fig8Impls() {
		for _, size := range Fig8Sizes() {
			run := func(newContext func(*cl.Device, string) *cl.Context) (float64, []byte) {
				trc := trace.New()
				bw, err := measureP2P(sys, im.St, im.Block, size, trc, newContext)
				if err != nil {
					t.Fatalf("%s %d: %v", im.Name, size, err)
				}
				return bw, chromeJSON(t, trc)
			}
			bwT, jsonT := run(cl.NewTimingContext)
			bwN, jsonN := run(cl.NewContext)
			if math.Float64bits(bwT) != math.Float64bits(bwN) {
				t.Errorf("%s %d bytes: timing-only %v B/s, with bytes %v B/s", im.Name, size, bwT, bwN)
			}
			if !bytes.Equal(jsonT, jsonN) {
				t.Errorf("%s %d bytes: Chrome traces differ", im.Name, size)
			}
		}
	}
}

// himenoEquivalent runs cfg both ways and compares the timing fields.
func himenoEquivalent(t *testing.T, cfg himeno.Config) {
	t.Helper()
	run := func(verify bool) *himeno.Result {
		cfg.Verify = verify
		res, err := himeno.Run(cfg)
		if err != nil {
			t.Fatalf("%v n=%d verify=%v: %v", cfg.Impl, cfg.Nodes, verify, err)
		}
		return res
	}
	timing, full := run(false), run(true)
	if full.Gosa == 0 || full.Grid == nil {
		t.Fatalf("%v n=%d: the Verify run computed nothing", cfg.Impl, cfg.Nodes)
	}
	if timing.Gosa != 0 || timing.Grid != nil {
		t.Fatalf("%v n=%d: the timing-only run computed numerics", cfg.Impl, cfg.Nodes)
	}
	full.Gosa, full.Grid = 0, nil
	// CheckpointVerified reads file contents, which only the Verify run has.
	full.CheckpointVerified = false
	if !reflect.DeepEqual(timing, full) {
		t.Errorf("%v n=%d: timing-only %+v, with numerics %+v", cfg.Impl, cfg.Nodes, *timing, *full)
	}
}

func fig9Equivalent(t *testing.T, sys cluster.System) {
	nodes := Fig9Nodes(sys)
	if sys.MaxNodes > 32 {
		nodes = []int{1, 2, 4, 8, 16, 32} // the S grid cannot feed 64 ranks
	}
	impls := []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI, himeno.GPUAware, himeno.CLMPIOutOfOrder}
	for _, n := range nodes {
		for _, impl := range impls {
			himenoEquivalent(t, himeno.Config{
				System: sys, Nodes: n, Size: himeno.SizeS, Iters: 2,
				Impl: impl, Mode: himeno.OfficialInit,
			})
		}
	}
	himenoEquivalent(t, himeno.Config{
		System: sys, Nodes: 2, Size: himeno.SizeS, Iters: 2,
		Impl: himeno.CLMPI, Mode: himeno.OfficialInit, CheckpointEvery: 1,
	})
}

func fig10Equivalent(t *testing.T, sys cluster.System) {
	params := nanopowder.Params{Cells: 40, Bins: 24, Steps: 2, SubSteps: 8}
	for _, n := range Fig10Nodes() {
		if sys.MaxNodes > 0 && n > sys.MaxNodes {
			continue
		}
		for _, impl := range []nanopowder.Impl{nanopowder.Baseline, nanopowder.CLMPI} {
			run := func(verify bool) *nanopowder.Result {
				res, err := nanopowder.Run(nanopowder.Config{
					System: sys, Nodes: n, Impl: impl, Params: params, Verify: verify,
				})
				if err != nil {
					t.Fatalf("%v n=%d verify=%v: %v", impl, n, verify, err)
				}
				return res
			}
			timing, full := run(false), run(true)
			if len(full.MassPerStep) != params.Steps || timing.MassPerStep != nil || timing.Final != nil {
				t.Fatalf("%v n=%d: numerics ran in the wrong mode", impl, n)
			}
			full.MassPerStep, full.Final = nil, nil
			if !reflect.DeepEqual(timing, full) {
				t.Errorf("%v n=%d: timing-only %+v, with numerics %+v", impl, n, *timing, *full)
			}
		}
	}
}

func fig4Equivalent(t *testing.T, sys cluster.System) {
	for _, impl := range []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI} {
		var traces [2][]byte
		for i, verify := range []bool{false, true} {
			trc, _, err := traceHimeno(himeno.Config{
				System: sys, Nodes: 2, Size: himeno.SizeS, Iters: 2,
				Impl: impl, Mode: himeno.OfficialInit, Verify: verify,
			})
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = chromeJSON(t, trc)
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Errorf("%v: Fig. 4 Chrome traces differ (%d vs %d bytes)", impl, len(traces[0]), len(traces[1]))
		}
	}
}
