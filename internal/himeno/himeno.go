// Package himeno implements the Himeno benchmark — the 19-point Jacobi
// pressure solver the clMPI paper evaluates in §V-C — in three distributed
// forms on the simulated GPU cluster:
//
//   - Serial: kernel execution and all data transfers fully serialized
//     (the paper's lower bound);
//   - HandOpt: the hand-optimized two-queue implementation of Fig. 2, which
//     overlaps each half-domain's computation with the other half's halo
//     exchange, the host thread blocking to serialize MPI and OpenCL;
//   - CLMPI: the extension-based implementation of Fig. 6, where halo
//     exchanges are clEnqueueSendBuffer/clEnqueueRecvBuffer commands ordered
//     purely by events, and the host thread only calls clFinish once per
//     iteration.
//
// The solver is numerically real: all three implementations produce final
// pressure grids bit-identical to a host-only reference solver, which the
// test suite verifies. The domain is decomposed along i; each rank's domain
// is halved into an upper part A and lower part B following Fig. 3, so each
// half's halo exchange can hide behind the other half's kernel.
package himeno

import (
	"fmt"
	"math"
)

// Omega is the Jacobi over-relaxation factor of the official benchmark.
const Omega = float32(0.8)

// FLOPsPerCell is the conventional operation count the benchmark's MFLOPS
// figures are computed with.
const FLOPsPerCell = 34.0

// Size is a Himeno problem size (official grid dimensions).
type Size struct {
	Name    string
	I, J, K int
}

// The official benchmark sizes (XS 32³·64 … L 256³·512 cells), with the
// long axis mapped to i so the 1-D decomposition of Fig. 3 has enough planes
// for up to 64 ranks.
var (
	SizeXS = Size{"XS", 65, 33, 33}
	SizeS  = Size{"S", 129, 65, 65}
	SizeM  = Size{"M", 257, 129, 129}
	SizeL  = Size{"L", 513, 257, 257}
)

// SizeByName resolves an official size name.
func SizeByName(name string) (Size, error) {
	for _, s := range []Size{SizeXS, SizeS, SizeM, SizeL} {
		if s.Name == name {
			return s, nil
		}
	}
	return Size{}, fmt.Errorf("himeno: unknown size %q", name)
}

// InteriorCells reports the number of updated cells per iteration.
func (s Size) InteriorCells() int { return (s.I - 2) * (s.J - 2) * (s.K - 2) }

// FLOPsPerIter reports the nominal floating-point work of one iteration.
func (s Size) FLOPsPerIter() float64 { return FLOPsPerCell * float64(s.InteriorCells()) }

// idx flattens (i,j,k) for a grid with dimensions (·, J, K).
func idx(j0, k0, i, j, k int) int { return (i*j0+j)*k0 + k }

// InitMode selects the initial pressure field.
type InitMode int

const (
	// OfficialInit is the benchmark's p = (i/(imax-1))² profile.
	OfficialInit InitMode = iota
	// ScrambledInit adds deterministic j,k-dependent variation so halo
	// correctness in every direction is exercised by tests.
	ScrambledInit
)

// initPlane fills dst, one J×K plane, with the initial pressure of global
// plane i. The official profile depends on i alone; ScrambledInit adds its
// per-(i,j,k) hash term on top.
func initPlane(mode InitMode, s Size, i int, dst []float32) {
	x := float32(i) / float32(s.I-1)
	v := float32(x * x)
	if mode != ScrambledInit {
		for n := range dst {
			dst[n] = v
		}
		return
	}
	hi := uint32(i * 73856093)
	for j := 0; j < s.J; j++ {
		hij := hi ^ uint32(j*19349663)
		row := dst[j*s.K : (j+1)*s.K]
		for k := range row {
			// Cheap deterministic hash → [0, 0.25) perturbation.
			h := hij ^ uint32(k*83492791)
			row[k] = v + float32(h%1024)/4096
		}
	}
}

// stencilPlanes applies the benchmark's update to the interior cells of
// planes [liFrom, liTo) of src (J×K cells per plane), writes the new values
// to dst and returns the sum of the squared residuals, accumulated in
// (plane, j, k) order. Every implementation — Reference and the device
// kernels jacobiKernel builds — funnels through stencilPlanes, which is what
// makes bitwise agreement between them a meaningful test.
//
// The explicit float32/float64 conversions round each product on its own,
// so no architecture may fuse it into an FMA and change the result.
func stencilPlanes(src, dst []float32, J, K, liFrom, liTo int) float64 {
	plane, n := J*K, K-2
	var gosa float64
	for i := liFrom; i < liTo; i++ {
		for j := 1; j < J-1; j++ {
			// Row slices start at k = 1, so index k below is cell k+1 of
			// the row; reslicing each to n lets the loop run unchecked.
			c := i*plane + j*K + 1
			row := src[c:][:n]
			east := src[c+1:][:n]   // k+1
			west := src[c-1:][:n]   // k-1
			up := src[c+plane:][:n] // i+1
			dn := src[c-plane:][:n] // i-1
			north := src[c+K:][:n]  // j+1
			south := src[c-K:][:n]  // j-1
			out := dst[c:][:n]
			for k, v := range row {
				// Official constant coefficients: a0..a2 = 1, a3 = 1/6,
				// b = 0, c = 1, wrk1 = 0, bnd = 1.
				s0 := up[k] + north[k] + east[k] + dn[k] + south[k] + west[k]
				ss := float32(s0*float32(1.0/6.0)) - v
				out[k] = v + float32(Omega*ss)
				gosa += float64(float64(ss) * float64(ss))
			}
		}
	}
	return gosa
}

// Reference runs the solver on the host only and returns the final grid and
// the residual (gosa) of the last iteration. It is the ground truth the
// distributed implementations are verified against.
func Reference(s Size, iters int, mode InitMode) ([]float32, float64) {
	plane := s.J * s.K
	p := make([]float32, s.I*plane)
	for i := 0; i < s.I; i++ {
		initPlane(mode, s, i, p[i*plane:(i+1)*plane])
	}
	wrk := append([]float32(nil), p...)
	var gosa float64
	for it := 0; it < iters; it++ {
		gosa = stencilPlanes(p, wrk, s.J, s.K, 1, s.I-1)
		p, wrk = wrk, p
	}
	return p, gosa
}

// relDiff reports the relative difference of two residuals.
func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
