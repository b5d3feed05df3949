package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// nowNano is a tiny wrapper so the speedup benchmark reads as arithmetic
// on nanoseconds.
func nowNano() int64 { return time.Now().UnixNano() }

func benchMatMul(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, n, n)
	y := Randn(rng, 1, n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MatMul(y)
	}
}

func BenchmarkMatMul32(b *testing.B)  { benchMatMul(b, 32) }
func BenchmarkMatMul128(b *testing.B) { benchMatMul(b, 128) }

func BenchmarkMatMulT128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 128, 128)
	y := Randn(rng, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MatMulT(y)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 1, 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.SoftmaxRows()
	}
}

func BenchmarkArgTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 8)
	for i := range v {
		v[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ArgTopK(v, 2)
	}
}

// Paper geometry: the TinyMistral dense projections the trainer actually
// runs — d_model=1024, FFN hidden 2816, per-step token batch 128. These
// are the shapes EXPERIMENTS.md quotes for the engine before/after table.
const (
	benchBatch  = 128
	benchD      = 1024
	benchHidden = 2816
)

func benchMatMulPaper(b *testing.B, degree int) {
	old := Parallelism()
	SetParallelism(degree)
	b.Cleanup(func() { SetParallelism(old) })
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 1, benchBatch, benchD)
	w := Randn(rng, 1, benchD, benchHidden)
	dst := Zeros(benchBatch, benchHidden)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatMulInto(w, dst)
	}
}

func BenchmarkMatMulPaperGeometrySerial(b *testing.B)   { benchMatMulPaper(b, 1) }
func BenchmarkMatMulPaperGeometryParallel(b *testing.B) { benchMatMulPaper(b, 0) }

// BenchmarkMatMulPaperGeometrySpeedup times the same kernel serial and
// parallel in one run and reports the ratio as a "speedup" metric, so the
// number survives into BENCH_tensor.json without post-processing. On a
// single-core runner the metric sits near 1.0 by construction.
func BenchmarkMatMulPaperGeometrySpeedup(b *testing.B) {
	old := Parallelism()
	b.Cleanup(func() { SetParallelism(old) })
	rng := rand.New(rand.NewSource(5))
	x := Randn(rng, 1, benchBatch, benchD)
	w := Randn(rng, 1, benchD, benchHidden)
	dst := Zeros(benchBatch, benchHidden)

	SetParallelism(1)
	serialStart := nowNano()
	const probes = 3
	for i := 0; i < probes; i++ {
		x.MatMulInto(w, dst)
	}
	serialPer := (nowNano() - serialStart) / probes

	SetParallelism(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatMulInto(w, dst)
	}
	parallelPer := b.Elapsed().Nanoseconds() / int64(b.N)
	if parallelPer > 0 {
		b.ReportMetric(float64(serialPer)/float64(parallelPer), "speedup")
	}
}

// kernelShapes are the GEMM shapes the step benchmark's workloads run,
// as n×k×m (the output is [n,m], the reduction is over k): the
// narrow-tcp expert FFN (21 routed rows, d=32, h=64), its rank-8 LoRA
// x@A, the wide-chan backbone's rank-8 LoRA, and the wide-chan expert FFN
// (d=128, h=352) in both directions.
var kernelShapes = []struct{ n, k, m int }{
	{21, 32, 64},
	{21, 32, 8},
	{128, 128, 8},
	{128, 128, 352},
	{128, 352, 128},
}

// BenchmarkKernel times each GEMM at each kernelShapes entry twice:
// "ref" calls the Go row kernel directly, "dispatch" the public entry
// point (the AVX2 kernel where the CPU has it, packing included for
// MatMulT). Both run on one goroutine, so ns/madd — nanoseconds per
// multiply-add — compares the kernels, not the sharding.
func BenchmarkKernel(b *testing.B) {
	old := Parallelism()
	SetParallelism(1)
	b.Cleanup(func() { SetParallelism(old) })
	for _, sh := range kernelShapes {
		n, k, m := sh.n, sh.k, sh.m
		rng := rand.New(rand.NewSource(6))
		x := Randn(rng, 1, n, k)  // MatMul, MatMulT left operand
		xt := Randn(rng, 1, k, n) // TMatMul left operand
		w := Randn(rng, 1, k, m)  // MatMul, TMatMul right operand
		wt := Randn(rng, 1, m, k) // MatMulT right operand
		r := Zeros(n, m)
		kernels := []struct {
			name string
			run  func()
		}{
			{"MatMul/ref", func() { matMulRows(r.Data, x.Data, w.Data, 0, n, k, m) }},
			{"MatMul/dispatch", func() { x.MatMulInto(w, r) }},
			{"MatMulT/ref", func() { matMulTRows(r.Data, x.Data, wt.Data, 0, n, k, m) }},
			{"MatMulT/dispatch", func() { x.MatMulTInto(wt, r) }},
			{"TMatMul/ref", func() { tMatMulRows(r.Data, xt.Data, w.Data, 0, n, k, n, m) }},
			{"TMatMul/dispatch", func() { xt.TMatMulInto(w, r) }},
		}
		for _, kr := range kernels {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kr.name, n, k, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kr.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(n*k*m)), "ns/madd")
			})
		}
	}
}
