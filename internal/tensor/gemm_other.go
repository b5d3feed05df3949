//go:build !amd64

package tensor

// useAVX2 is false off amd64: the Go row kernels in parallel.go are the
// only path.
const useAVX2 = false

// The AVX2 kernels exist only on amd64. These stand-ins let the
// dispatching entry points and the kernel tests compile everywhere; with
// useAVX2 constant false nothing calls them.

func gemmAxpyAVX2(r, a, b []float64, lo, hi, k, m, sai, sap int) {
	panic("tensor: AVX2 kernel called without AVX2")
}

func gemmDotAVX2(r, a, b []float64, lo, hi, k, m, sai, sap int) {
	panic("tensor: AVX2 kernel called without AVX2")
}
