package tensor

// useAVX2 selects the AVX2 row kernels in gemm_amd64.s. It is decided
// once, from the CPU: there is no flag or environment override, and the
// Go kernels in parallel.go serve every machine where it is false.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM register state across context switches (OSXSAVE set and XCR0 bits
// 1–2 enabled); without the latter, AVX instructions fault.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// gemmAxpyAVX2 is matMulRows / tMatMulRows: for i in [lo, hi) it writes
// r[i,j] = Σ_p a[i*sai+p*sap]·b[p*m+j], skipping p where the a element is
// ±0. The caller guarantees every index is in bounds.
//
//go:noescape
func gemmAxpyAVX2(r, a, b []float64, lo, hi, k, m, sai, sap int)

// gemmDotAVX2 is gemmAxpyAVX2 without the zero skip and with matMulTRows'
// operand order; matMulTRows runs it over a packed bᵀ.
//
//go:noescape
func gemmDotAVX2(r, a, b []float64, lo, hi, k, m, sai, sap int)
