package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// kernelInput fills an operand with the values that stress a GEMM kernel's
// rounding and special-case behaviour: ordinary normals, exact +0 and −0
// (which drive the zero skip), subnormals, tiny normals whose products
// underflow into subnormals, and — at rate special — ±Inf and NaNs of
// two payloads (when two NaNs meet, operand order decides which survives).
func kernelInput(rng *rand.Rand, n int, special float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := rng.Float64()
		switch {
		case u < special/6:
			out[i] = math.NaN()
		case u < special/3:
			out[i] = otherNaN
		case u < 2*special/3:
			out[i] = math.Inf(1)
		case u < special:
			out[i] = math.Inf(-1)
		case u < special+0.10:
			out[i] = 0
		case u < special+0.15:
			out[i] = math.Copysign(0, -1)
		case u < special+0.20:
			out[i] = math.SmallestNonzeroFloat64 * float64(rng.Intn(1<<20)-1<<19)
		case u < special+0.25:
			out[i] = 1e-160 * rng.NormFloat64()
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// otherNaN is a quiet NaN whose sign and payload differ from math.NaN().
var otherNaN = math.Float64frombits(0xfff8_0000_0000_00a5)

// dirtyRows returns an [n,m] buffer of sentinels, so a kernel writing
// outside its row range, or leaving an in-range element unwritten, shows.
func dirtyRows(n, m int) []float64 {
	out := make([]float64, n*m)
	for i := range out {
		out[i] = -999.5
	}
	return out
}

// TestSIMDKernelsMatchReference calls the AVX2 kernels directly against
// the Go kernels they replace and requires bit equality — NaN payloads
// included, outside -race — over every column tail (16, 8, 4, scalar),
// random row ranges, and inputs full of zeros, −0, ±Inf, NaN and
// subnormals.
func TestSIMDKernelsMatchReference(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU lacks AVX2 (or GOARCH is not amd64): the Go kernels are the only path")
	}
	rng := rand.New(rand.NewSource(12))
	type shape struct{ n, k, m int }
	var shapes []shape
	for _, m := range []int{1, 3, 4, 8, 15, 16, 17, 33} {
		shapes = append(shapes, shape{1 + rng.Intn(70), 1 + rng.Intn(70), m})
	}
	for i := 0; i < 300; i++ {
		shapes = append(shapes, shape{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	for c, sh := range shapes {
		n, k, m := sh.n, sh.k, sh.m
		special := []float64{0, 0.005, 0.05}[c%3]
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)

		a := kernelInput(rng, n*k, special)  // [n,k]
		b := kernelInput(rng, k*m, special)  // [k,m]
		bm := kernelInput(rng, m*k, special) // [m,k]
		at := kernelInput(rng, k*n, special) // [k,n]

		want, got := dirtyRows(n, m), dirtyRows(n, m)
		matMulRows(want, a, b, lo, hi, k, m)
		gemmAxpyAVX2(got, a, b, lo, hi, k, m, k, 1)
		checkKernel(t, "matMul", sh.n, sh.k, sh.m, lo, hi, want, got)

		want, got = dirtyRows(n, m), dirtyRows(n, m)
		matMulTRows(want, a, bm, lo, hi, k, m)
		packed := make([]float64, k*m)
		for j := 0; j < m; j++ {
			for p := 0; p < k; p++ {
				packed[p*m+j] = bm[j*k+p]
			}
		}
		gemmDotAVX2(got, a, packed, lo, hi, k, m, k, 1)
		checkKernel(t, "matMulT", sh.n, sh.k, sh.m, lo, hi, want, got)

		want, got = dirtyRows(n, m), dirtyRows(n, m)
		tMatMulRows(want, at, b, lo, hi, k, n, m)
		gemmAxpyAVX2(got, at, b, lo, hi, k, m, 1, n)
		checkKernel(t, "tMatMul", sh.n, sh.k, sh.m, lo, hi, want, got)
	}
}

// checkKernel requires got to equal want bit for bit. One exception: in
// -race builds the instrumented Go kernels are compiled with a different
// operand order, so where two NaN payloads meet the reference itself
// returns the other payload; there a NaN need only match a NaN.
func checkKernel(t *testing.T, op string, n, k, m, lo, hi int, want, got []float64) {
	t.Helper()
	for i := range want {
		if raceEnabled && math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if !testutil.BitEqual(want[i], got[i]) {
			t.Fatalf("%s n=%d k=%d m=%d rows [%d,%d): element [%d,%d] = %v (%#x), reference %v (%#x)",
				op, n, k, m, lo, hi, i/m, i%m, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
