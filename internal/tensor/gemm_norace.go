//go:build !race

package tensor

// raceGEMM is a no-op outside -race builds; see gemm_race.go.
func raceGEMM(w, r1, r2 []float64) {}
