package himeno

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// sameBits reports whether a and b are the same float32 bit pattern, or
// both NaN: Go does not say which payload an operation on two NaNs returns
// (the compiler may commute the operands of an add), so any NaN matches any
// NaN. Every other pattern, ±0 and subnormals included, must match exactly.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// edgyFloat32 draws from a mix of raw bit patterns (NaNs and infinities
// included), signed zeros, subnormals, huge magnitudes and ordinary
// pressures, so overflow, underflow and rounding paths all get exercised.
func edgyFloat32(rng *rand.Rand) float32 {
	sign := rng.Uint32() & 0x8000_0000
	switch rng.IntN(8) {
	case 0, 1:
		return math.Float32frombits(rng.Uint32())
	case 2:
		return math.Float32frombits(sign)
	case 3:
		return math.Float32frombits(sign | rng.Uint32N(1<<23)) // subnormal
	case 4:
		return math.Float32frombits(sign | (250+rng.Uint32N(5))<<23 | rng.Uint32N(1<<23))
	default:
		return rng.Float32()
	}
}

// rowCase is one call's inputs: the row, its six neighbours and gosa.
type rowCase struct {
	row, east, west, up, dn, north, south []float32
	gosa                                  float64
}

// checkRow runs stencilRow and stencilRowGeneric on c and reports the first
// cell or gosa whose bits differ.
func checkRow(c rowCase) error {
	n := len(c.row)
	got, want := make([]float32, n), make([]float32, n)
	gotGosa := stencilRow(got, c.row, c.east, c.west, c.up, c.dn, c.north, c.south, c.gosa)
	wantGosa := stencilRowGeneric(want, c.row, c.east, c.west, c.up, c.dn, c.north, c.south, c.gosa)
	for k := range got {
		if !sameBits(got[k], want[k]) {
			return fmt.Errorf("cell %d: %#08x, generic %#08x", k, math.Float32bits(got[k]), math.Float32bits(want[k]))
		}
	}
	if !sameBits64(gotGosa, wantGosa) {
		return fmt.Errorf("gosa %#016x, generic %#016x", math.Float64bits(gotGosa), math.Float64bits(wantGosa))
	}
	return nil
}

// TestStencilRowMatchesGeneric compares the solver's row kernel with the
// portable one bit for bit on every row length from 0 to 41, so each
// remainder of a four-wide kernel's tail runs many times (the grids' own
// rows, 12, 31, 63 and 127 cells long, leave n mod 4 = 1 and 2 untried).
func TestStencilRowMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 41))
	for n := 0; n <= 41; n++ {
		for trial := 0; trial < 50; trial++ {
			v := make([]float32, 7*n)
			for x := range v {
				v[x] = edgyFloat32(rng)
			}
			c := rowCase{v[:n], v[n : 2*n], v[2*n : 3*n], v[3*n : 4*n], v[4*n : 5*n], v[5*n : 6*n], v[6*n:],
				float64(edgyFloat32(rng))}
			if err := checkRow(c); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
		}
		// The middle row of a 3×3×(n+2) scrambled grid.
		s := Size{"row", 3, 3, n + 2}
		g := oracleGrid(ScrambledInit, s)
		c := idx(s.J, s.K, 1, 1, 1)
		p := s.J * s.K
		rc := rowCase{g[c:][:n], g[c+1:][:n], g[c-1:][:n], g[c+p:][:n], g[c-p:][:n], g[c+s.K:][:n], g[c-s.K:][:n], 0.25}
		if err := checkRow(rc); err != nil {
			t.Fatalf("n=%d scrambled grid: %v", n, err)
		}
	}
}

// TestStencilPlanesMatchesGenericKernel runs whole solves, three sweeps
// each, with the solver's kernel and with the portable one, on the XS and S
// grids and on grids whose rows are 12, 9 and 5 cells long, in both initial
// fields; grids and gosa must agree bit for bit.
func TestStencilPlanesMatchesGenericKernel(t *testing.T) {
	sizes := []Size{SizeXS, SizeS, {"n12", 9, 7, 14}, {"n9", 7, 6, 11}, {"n5", 6, 8, 7}}
	for _, s := range sizes {
		for _, mode := range []InitMode{OfficialInit, ScrambledInit} {
			solve := func(kernel rowKernel) ([]float32, float64) {
				p := oracleGrid(mode, s)
				wrk := append([]float32(nil), p...)
				var gosa float64
				for it := 0; it < 3; it++ {
					gosa = sweepPlanes(kernel, p, wrk, s.J, s.K, 1, s.I-1)
					p, wrk = wrk, p
				}
				return p, gosa
			}
			got, gotGosa := solve(stencilRow)
			want, wantGosa := solve(stencilRowGeneric)
			if x := firstDiff(got, want); x >= 0 {
				t.Errorf("%s/%s: cell %d differs: %v vs generic %v", s.Name, modeName(mode), x, got[x], want[x])
			}
			if math.Float64bits(gotGosa) != math.Float64bits(wantGosa) {
				t.Errorf("%s/%s: gosa %v, generic %v", s.Name, modeName(mode), gotGosa, wantGosa)
			}
		}
	}
}

// TestPlaneCodecRoundTrip checks packPlane byte for byte against the
// encoding/binary little-endian form, unpackPlane as its inverse on every
// bit pattern, and that neither writes past the plane.
func TestPlaneCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for _, n := range []int{0, 1, 2, 3, 5, 33 * 33, 65 * 65} {
		src := make([]float32, n)
		for x := range src {
			src[x] = math.Float32frombits(rng.Uint32())
		}
		want := make([]byte, 4*n)
		for x, v := range src {
			binary.LittleEndian.PutUint32(want[4*x:], math.Float32bits(v))
		}
		for _, c := range []struct {
			name   string
			pack   func([]byte, []float32)
			unpack func([]float32, []byte)
		}{{"plane", packPlane, unpackPlane}, {"generic", packPlaneGeneric, unpackPlaneGeneric}} {
			out := make([]byte, 4*n+3)
			out[4*n], out[4*n+1], out[4*n+2] = 0xa5, 0xa5, 0xa5
			c.pack(out, src)
			if string(out[:4*n]) != string(want) {
				t.Fatalf("%s pack, n=%d: bytes differ from encoding/binary", c.name, n)
			}
			if out[4*n] != 0xa5 || out[4*n+1] != 0xa5 || out[4*n+2] != 0xa5 {
				t.Fatalf("%s pack, n=%d: wrote past the plane", c.name, n)
			}
			back := make([]float32, n+1)
			back[n] = 7
			c.unpack(back[:n], out)
			for x := range src {
				if math.Float32bits(back[x]) != math.Float32bits(src[x]) {
					t.Fatalf("%s unpack, n=%d: cell %d is %#08x, want %#08x",
						c.name, n, x, math.Float32bits(back[x]), math.Float32bits(src[x]))
				}
			}
			if back[n] != 7 {
				t.Fatalf("%s unpack, n=%d: wrote past the plane", c.name, n)
			}
		}
	}
}

// FuzzStencilRow compares the solver's row kernel with the portable one on
// arbitrary bit patterns: data holds the seven input rows back to back as
// little-endian float32s, gosa the running sum handed in.
func FuzzStencilRow(f *testing.F) {
	f.Add([]byte{}, 0.0)
	f.Add(make([]byte, 7*4*5), 1.5)
	f.Fuzz(func(t *testing.T, data []byte, gosa float64) {
		n := len(data) / (7 * 4)
		v := make([]float32, 7*n)
		unpackPlaneGeneric(v, data)
		c := rowCase{v[:n], v[n : 2*n], v[2*n : 3*n], v[3*n : 4*n], v[4*n : 5*n], v[5*n : 6*n], v[6*n:], gosa}
		if err := checkRow(c); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	})
}
