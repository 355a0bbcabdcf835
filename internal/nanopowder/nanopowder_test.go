package nanopowder

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// testParams keeps the real (host) compute small while preserving all code
// paths: multi-chunk pipelined transfers still occur because the per-worker
// coefficient slice stays above the pipeline block size.
func testParams() Params {
	return Params{Cells: 8, Bins: 96, Steps: 3, SubSteps: 50}
}

func TestCoeffVolumeMatchesPaper(t *testing.T) {
	p := DefaultParams()
	got := float64(p.TotalCoeffBytes()) / (1 << 20)
	if got < 40 || got > 44 {
		t.Fatalf("coefficient table = %.1f MiB, want ≈42 (paper §V-D)", got)
	}
}

func TestReferenceMassAccounting(t *testing.T) {
	p := testParams()
	m := newModel(p, newPairTable(p.Bins))
	coeffs := make([]byte, p.cellCoeffBytes())
	var before, after, injected float64
	for c := 0; c < p.Cells; c++ {
		before += mass(m.state[c].n)
	}
	src := m.advanceScalars(0)
	for c := 0; c < p.Cells; c++ {
		m.buildCoeffs(c, coeffs)
		coagulateCell(p, m.state[c].n, coeffs, src[c])
		injected += dt * src[c] // nucleation enters bin 0 (size 1)
	}
	for c := 0; c < p.Cells; c++ {
		after += mass(m.state[c].n)
	}
	if d := math.Abs(after - before - injected); d > 1e-9*before {
		t.Fatalf("mass not conserved: before %.9f + injected %.9f != after %.9f (err %g)",
			before, injected, after, d)
	}
}

func TestCoagulationShiftsMassUpward(t *testing.T) {
	p := testParams()
	m := newModel(p, newPairTable(p.Bins))
	coeffs := make([]byte, p.cellCoeffBytes())
	m.buildCoeffs(0, coeffs)
	n := m.state[0].n
	smallBefore := n[0]
	var largeBefore float64
	for k := p.Bins / 2; k < p.Bins; k++ {
		largeBefore += n[k]
	}
	for step := 0; step < 20; step++ {
		coagulateCell(p, n, coeffs, 0)
	}
	var largeAfter float64
	for k := p.Bins / 2; k < p.Bins; k++ {
		largeAfter += n[k]
	}
	if n[0] >= smallBefore {
		t.Error("monomer population did not shrink under coagulation")
	}
	if largeAfter <= largeBefore {
		t.Error("large-particle population did not grow")
	}
}

func TestBothImplsMatchReference(t *testing.T) {
	p := testParams()
	want := Reference(p)
	for _, impl := range []Impl{Baseline, CLMPI} {
		for _, nodes := range []int{1, 2, 4, 8} {
			impl, nodes := impl, nodes
			t.Run(fmt.Sprintf("%v/nodes=%d", impl, nodes), func(t *testing.T) {
				res, err := Run(Config{
					System: cluster.RICC(), Nodes: nodes, Impl: impl,
					Params: p, Verify: true,
				})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				for c := range want {
					for k := range want[c] {
						if res.Final[c][k] != want[c][k] {
							t.Fatalf("cell %d bin %d: %v != reference %v", c, k, res.Final[c][k], want[c][k])
						}
					}
				}
			})
		}
	}
}

func TestMassSeriesMonotoneGrowth(t *testing.T) {
	// Nucleation injects mass every step, so the global mass series grows.
	// MassPerStep is computed only with Verify on.
	res, err := Run(Config{System: cluster.RICC(), Nodes: 4, Impl: CLMPI, Params: testParams(), Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MassPerStep) != testParams().Steps {
		t.Fatalf("mass series has %d steps, want %d", len(res.MassPerStep), testParams().Steps)
	}
	for i := 1; i < len(res.MassPerStep); i++ {
		if res.MassPerStep[i] <= res.MassPerStep[i-1] {
			t.Fatalf("mass series not increasing: %v", res.MassPerStep)
		}
	}
}

// TestCLMPIOutperformsBaseline is the headline of Fig. 10: with the
// communication exposed, the pipelined clMPI distribution beats the
// serialized baseline.
func TestCLMPIOutperformsBaseline(t *testing.T) {
	p := Params{Cells: 8, Bins: 256, Steps: 2, SubSteps: 50}
	base, err := Run(Config{System: cluster.RICC(), Nodes: 4, Impl: Baseline, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	clm, err := Run(Config{System: cluster.RICC(), Nodes: 4, Impl: CLMPI, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if clm.StepTime >= base.StepTime {
		t.Fatalf("clMPI step %v not faster than baseline %v", clm.StepTime, base.StepTime)
	}
}

func TestValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := Run(Config{System: cluster.RICC(), Nodes: 3, Impl: Baseline, Params: p}); err == nil {
		t.Error("3 nodes does not divide 40 cells but was accepted")
	}
	bad := p
	bad.Steps = 0
	if _, err := Run(Config{System: cluster.RICC(), Nodes: 2, Impl: Baseline, Params: bad}); err == nil {
		t.Error("zero steps accepted")
	}
}

// TestPropDivisorsValidate: validate accepts exactly the divisors.
func TestPropDivisorsValidate(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := DefaultParams()
		err := p.validate(n)
		if p.Cells%n == 0 {
			return err == nil
		}
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}
