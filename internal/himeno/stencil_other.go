//go:build !amd64

package himeno

// stencilRow is the solver's row kernel; see rowKernel.
func stencilRow(out, row, east, west, up, dn, north, south []float32, gosa float64) float64 {
	return stencilRowGeneric(out, row, east, west, up, dn, north, south, gosa)
}

// packPlane writes src into out as little-endian float32 bits.
func packPlane(out []byte, src []float32) { packPlaneGeneric(out, src) }

// unpackPlane fills dst from its little-endian wire form in in.
func unpackPlane(dst []float32, in []byte) { unpackPlaneGeneric(dst, in) }
