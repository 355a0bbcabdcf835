package nanopowder

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// cellsDigest is the SHA-256 of every cell's float64 bits, little-endian,
// cells in order.
func cellsDigest(cells [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, n := range cells {
		for _, v := range n {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestNumericsGolden pins the reference state and the wire-format
// coefficients to digests recorded on linux/amd64 at commit ff1c3a9, from
// the per-pair coefficient builder that preceded the pair table. The
// distributed runs are otherwise only compared with Reference, which shares
// the builder, so a change that shifted every coefficient alike would go
// unnoticed. Cells 0 and 39 sit symmetrically about the hot core and share a
// temperature, hence a digest.
func TestNumericsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests were recorded on amd64; other architectures may fuse the multiply-adds in newModel and coagulateCell")
	}
	p := DefaultParams()
	p.Steps = 2
	const wantRef = "7d5c9452d07080530b37226d8b6b6f63f413c1d2c5612cc3343df0c698345046"
	if got := cellsDigest(Reference(p)); got != wantRef {
		t.Errorf("Reference(steps=2): digest %s, want %s", got, wantRef)
	}

	wantCoeffs := map[int]string{
		0:  "d8adafd93dea901a1075749f43cc48e8322bfdd3f738764197202781aa9ff185",
		19: "debd969a831fbdc36cd23c96e7857891b163b28b06111b914a735e74fa0a19dd",
		39: "d8adafd93dea901a1075749f43cc48e8322bfdd3f738764197202781aa9ff185",
	}
	m := newModel(p, newPairTable(p.Bins))
	out := make([]byte, p.cellCoeffBytes())
	for _, c := range []int{0, 19, 39} {
		m.buildCoeffs(c, out)
		if got := bytesDigest(out); got != wantCoeffs[c] {
			t.Errorf("buildCoeffs(cell %d): digest %s, want %s", c, got, wantCoeffs[c])
		}
	}
}

// buildCoeffsPerPair is the per-pair form of buildCoeffs, kept as its test
// oracle: every factor is recomputed for each of the Bins² pairs.
func buildCoeffsPerPair(m *model, c int, out []byte) {
	p := m.p
	t := m.temp[c]
	kern0 := 1e-3 * math.Sqrt(t/3000)
	eff0 := 0.6 + float64(0.4*math.Exp(-t/3000))
	b := p.Bins
	for i := 0; i < b; i++ {
		si := float64(i + 1)
		ri := math.Cbrt(si)
		for j := 0; j < b; j++ {
			sj := float64(j + 1)
			rj := math.Cbrt(sj)
			sum := ri + rj
			k := kern0 * sum * sum * math.Sqrt(1/si+1/sj)
			e := eff0 / (1 + float64(0.01*math.Abs(si-sj)))
			binary.LittleEndian.PutUint64(out[(i*b+j)*8:], math.Float64bits(k))
			binary.LittleEndian.PutUint64(out[(b*b+i*b+j)*8:], math.Float64bits(e))
		}
	}
}

// TestBuildCoeffsMatchesPerPairOracle checks the pair-table builder against
// the per-pair oracle byte for byte at every cell temperature, before and
// after the plasma cools, for a single bin, an odd bin count and the
// paper's 256 bins.
func TestBuildCoeffsMatchesPerPairOracle(t *testing.T) {
	for _, bins := range []int{1, 7, 256} {
		p := Params{Cells: 40, Bins: bins, Steps: 1}
		m := newModel(p, newPairTable(bins))
		got := make([]byte, p.cellCoeffBytes())
		want := make([]byte, p.cellCoeffBytes())
		for step := 0; step < 2; step++ {
			for c := 0; c < p.Cells; c++ {
				m.buildCoeffs(c, got)
				buildCoeffsPerPair(m, c, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("bins=%d step=%d cell %d: coefficients differ from the per-pair oracle", bins, step, c)
				}
			}
			m.advanceScalars(step)
		}
	}
}

func TestBuildCoeffsDoesNotAllocate(t *testing.T) {
	p := DefaultParams()
	m := newModel(p, newPairTable(p.Bins))
	out := make([]byte, p.cellCoeffBytes())
	if a := testing.AllocsPerRun(10, func() { m.buildCoeffs(19, out) }); a != 0 {
		t.Errorf("buildCoeffs: %v allocs/op, want 0", a)
	}
}

// BenchmarkBuildCoeffs is one cell's coefficient tables at the paper's 256
// bins; the pair table is built once, outside the timer.
func BenchmarkBuildCoeffs(b *testing.B) {
	p := DefaultParams()
	m := newModel(p, newPairTable(p.Bins))
	out := make([]byte, p.cellCoeffBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.buildCoeffs(n%p.Cells, out)
	}
}
