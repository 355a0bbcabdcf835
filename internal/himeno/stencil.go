package himeno

import (
	"encoding/binary"
	"math"
)

// rowKernel updates one row of interior cells: out[k] gets the new value of
// cell row[k] from its six neighbours, and the squared residual of every
// cell is added to gosa in k order, which is returned. stencilRow is the
// kernel the solver runs; stencilRowGeneric is the portable one.
type rowKernel func(out, row, east, west, up, dn, north, south []float32, gosa float64) float64

// stencilRowGeneric is the row kernel in plain Go: the kernel on every
// architecture without an assembly one, and the oracle that one is tested
// against. All eight slices have the same length; out must not overlap the
// inputs.
//
// The explicit float32/float64 conversions round each product on its own,
// so no architecture may fuse it into an FMA and change the result.
func stencilRowGeneric(out, row, east, west, up, dn, north, south []float32, gosa float64) float64 {
	// Resliced to len(row), the neighbours need no bounds checks below.
	n := len(row)
	out, east, west, up, dn, north, south = out[:n], east[:n], west[:n], up[:n], dn[:n], north[:n], south[:n]
	for k, v := range row {
		// Official constant coefficients: a0..a2 = 1, a3 = 1/6,
		// b = 0, c = 1, wrk1 = 0, bnd = 1.
		s0 := up[k] + north[k] + east[k] + dn[k] + south[k] + west[k]
		ss := float32(s0*float32(1.0/6.0)) - v
		out[k] = v + float32(Omega*ss)
		gosa += float64(float64(ss) * float64(ss))
	}
	return gosa
}

// packPlaneGeneric writes src into out as little-endian float32 bits, the
// wire form of a halo plane.
func packPlaneGeneric(out []byte, src []float32) {
	out = out[:4*len(src)]
	for x, v := range src {
		binary.LittleEndian.PutUint32(out[x*4:], math.Float32bits(v))
	}
}

// unpackPlaneGeneric fills dst from its little-endian wire form in in.
func unpackPlaneGeneric(dst []float32, in []byte) {
	in = in[:4*len(dst)]
	for x := range dst {
		dst[x] = math.Float32frombits(binary.LittleEndian.Uint32(in[x*4:]))
	}
}
