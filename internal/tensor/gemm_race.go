//go:build race

package tensor

import (
	"runtime"
	"unsafe"
)

// raceGEMM reports to the race detector what an assembly kernel call is
// about to do: write w, read r1 and r2. The detector instruments Go code
// only, so without this, races on GEMM operands would go unseen under
// -race.
func raceGEMM(w, r1, r2 []float64) {
	if len(w) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&w[0]), len(w)*8)
	}
	for _, r := range [2][]float64{r1, r2} {
		if len(r) > 0 {
			runtime.RaceReadRange(unsafe.Pointer(&r[0]), len(r)*8)
		}
	}
}
