package himeno

import "unsafe"

// stencilRow is the solver's row kernel (see rowKernel), in SSE2 assembly:
// four cells per step with packed single-precision adds and multiplies in
// stencilRowGeneric's operand order, then the four squared residuals widened
// to float64 and added to gosa one at a time in k order. SSE2 is part of
// the amd64 baseline, so there is no fallback. The kernel works on the
// shortest of the eight slices' lengths, so a mismatched call cannot touch
// memory outside them.
//
//go:noescape
func stencilRow(out, row, east, west, up, dn, north, south []float32, gosa float64) float64

// packPlane writes src into out as little-endian float32 bits. amd64 is
// little-endian, so that is src's own memory: one copy.
func packPlane(out []byte, src []float32) {
	copy(out[:4*len(src)], unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(src))), 4*len(src)))
}

// unpackPlane fills dst from its little-endian wire form in in: one copy.
func unpackPlane(dst []float32, in []byte) {
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)), in[:4*len(dst)])
}
