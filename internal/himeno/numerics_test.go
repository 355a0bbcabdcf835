package himeno

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// gridDigest is the SHA-256 of a grid's float32 bits followed by the gosa's
// float64 bits, all little-endian.
func gridDigest(grid []float32, gosa float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range grid {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
		h.Write(b[:4])
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(gosa))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestNumericsGolden pins the host reference solver's output to digests
// recorded on linux/amd64 at commit ff1c3a9, from the per-cell stencil that
// preceded the row kernel. Every other himeno test compares a distributed
// run against Reference, which shares the kernel, so a change that shifted
// the numerics everywhere at once would pass them; this one would not.
func TestNumericsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests were recorded on amd64 and are unverified elsewhere")
	}
	const iters = 3
	golden := map[string]string{
		"XS/official":  "fdb25cfe095d673c1741614513eae72dfb5fe5325f629d66f17020c22c9e4219",
		"XS/scrambled": "99ce4b1706a19e3ed69235d12cfdec01099404c5756937eaa2e3ca1522dcb46a",
		"S/official":   "c2f9a77126e5ccf6c57628fa9bc140ea03df74c60016ea97ee1da4de0ef6fdd4",
		"S/scrambled":  "c1175b32948a8dbbc03e454140e653fdc513d5e984ad8b8e9ead802942144ae2",
	}
	for _, s := range []Size{SizeXS, SizeS} {
		for _, mode := range []InitMode{OfficialInit, ScrambledInit} {
			name := fmt.Sprintf("%s/%s", s.Name, modeName(mode))
			grid, gosa := Reference(s, iters, mode)
			if got := gridDigest(grid, gosa); got != golden[name] {
				t.Errorf("%s: digest %s, want %s", name, got, golden[name])
			}
		}
	}
}

func modeName(m InitMode) string {
	if m == ScrambledInit {
		return "scrambled"
	}
	return "official"
}

// initCell is the per-cell form of initPlane, kept as its test oracle.
func initCell(mode InitMode, s Size, i, j, k int) float32 {
	x := float32(i) / float32(s.I-1)
	v := float32(x * x)
	if mode == ScrambledInit {
		h := uint32(i*73856093) ^ uint32(j*19349663) ^ uint32(k*83492791)
		v += float32(h%1024) / 4096
	}
	return v
}

// stencilCell is the per-cell form of stencilPlanes, kept as its test
// oracle: one interior cell of p (J×K per plane), full index arithmetic per
// neighbour, returning the new value and the squared residual.
func stencilCell(p []float32, J, K, i, j, k int) (float32, float64) {
	at := func(i, j, k int) float32 { return p[(i*J+j)*K+k] }
	s0 := at(i+1, j, k) + at(i, j+1, k) + at(i, j, k+1) +
		at(i-1, j, k) + at(i, j-1, k) + at(i, j, k-1)
	ss := float32(s0*float32(1.0/6.0)) - at(i, j, k)
	nv := at(i, j, k) + float32(Omega*ss)
	return nv, float64(float64(ss) * float64(ss))
}

// oracleGrid builds a full grid cell by cell with initCell.
func oracleGrid(mode InitMode, s Size) []float32 {
	g := make([]float32, s.I*s.J*s.K)
	for i := 0; i < s.I; i++ {
		for j := 0; j < s.J; j++ {
			for k := 0; k < s.K; k++ {
				g[idx(s.J, s.K, i, j, k)] = initCell(mode, s, i, j, k)
			}
		}
	}
	return g
}

// firstDiff reports the first index at which a and b differ in bits, or -1.
func firstDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for x := range a {
		if math.Float32bits(a[x]) != math.Float32bits(b[x]) {
			return x
		}
	}
	return -1
}

func TestInitPlaneMatchesPerCellOracle(t *testing.T) {
	for _, s := range []Size{SizeXS, {"asym", 11, 7, 13}} {
		for _, mode := range []InitMode{OfficialInit, ScrambledInit} {
			want := oracleGrid(mode, s)
			got := make([]float32, len(want))
			plane := s.J * s.K
			for i := 0; i < s.I; i++ {
				initPlane(mode, s, i, got[i*plane:(i+1)*plane])
			}
			if x := firstDiff(got, want); x >= 0 {
				t.Errorf("%s/%s: cell %d differs", s.Name, modeName(mode), x)
			}
		}
	}
}

// TestStencilPlanesMatchesPerCellOracle checks the row kernel against the
// per-cell oracle bit for bit, on an asymmetric J≠K grid, over the A/B
// halves kernelRange hands the distributed implementations as well as
// single planes and the whole interior.
func TestStencilPlanesMatchesPerCellOracle(t *testing.T) {
	s := Size{"asym", 13, 9, 14}
	src := oracleGrid(ScrambledInit, s)
	rk := &rank{own: s.I - 2, half: (s.I - 2) / 2}
	aFrom, aTo := rk.kernelRange(true)
	bFrom, bTo := rk.kernelRange(false)
	ranges := [][2]int{{aFrom, aTo}, {bFrom, bTo}, {1, 2}, {s.I - 2, s.I - 1}, {4, 9}, {1, s.I - 1}}
	for _, r := range ranges {
		want := append([]float32(nil), src...)
		var wantGosa float64
		for i := r[0]; i < r[1]; i++ {
			for j := 1; j < s.J-1; j++ {
				for k := 1; k < s.K-1; k++ {
					nv, ss := stencilCell(src, s.J, s.K, i, j, k)
					want[idx(s.J, s.K, i, j, k)] = nv
					wantGosa += ss
				}
			}
		}
		got := append([]float32(nil), src...)
		gotGosa := stencilPlanes(src, got, s.J, s.K, r[0], r[1])
		if x := firstDiff(got, want); x >= 0 {
			t.Errorf("planes [%d,%d): cell %d differs: %v vs oracle %v", r[0], r[1], x, got[x], want[x])
		}
		if math.Float64bits(gotGosa) != math.Float64bits(wantGosa) {
			t.Errorf("planes [%d,%d): gosa %v, oracle %v", r[0], r[1], gotGosa, wantGosa)
		}
	}
}

// TestKernelsDoNotAllocate pins the row kernel and the plane initializer to
// zero heap allocations per call.
func TestKernelsDoNotAllocate(t *testing.T) {
	s := SizeXS
	src := oracleGrid(ScrambledInit, s)
	dst := append([]float32(nil), src...)
	if a := testing.AllocsPerRun(10, func() { stencilPlanes(src, dst, s.J, s.K, 1, s.I-1) }); a != 0 {
		t.Errorf("stencilPlanes: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { initPlane(ScrambledInit, s, 5, dst[:s.J*s.K]) }); a != 0 {
		t.Errorf("initPlane: %v allocs/op, want 0", a)
	}
}

// gosaSink keeps the benchmarked sweep's result live.
var gosaSink float64

// BenchmarkStencilPlanes is one Jacobi sweep over the interior of size M.
func BenchmarkStencilPlanes(b *testing.B) {
	s := SizeM
	src := oracleGrid(OfficialInit, s)
	dst := append([]float32(nil), src...)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		gosaSink = stencilPlanes(src, dst, s.J, s.K, 1, s.I-1)
	}
}

// BenchmarkInitGrid fills a whole size-M grid with the initial field.
func BenchmarkInitGrid(b *testing.B) {
	s := SizeM
	plane := s.J * s.K
	g := make([]float32, s.I*plane)
	for _, mode := range []InitMode{OfficialInit, ScrambledInit} {
		b.Run("mode="+modeName(mode), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := 0; i < s.I; i++ {
					initPlane(mode, s, i, g[i*plane:(i+1)*plane])
				}
			}
		})
	}
}
