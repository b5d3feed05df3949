// Parallel compute engine: goroutine-parallel GEMM kernels over a
// persistent worker pool, with destination-passing ("Into") variants that
// let hot paths reuse output buffers across steps.
//
// Determinism contract: every parallel kernel partitions its OUTPUT into
// contiguous row ranges, each owned by exactly one goroutine, and runs the
// same inner-loop accumulation order as the serial kernel within that
// range. Each output element is therefore computed by one goroutine with
// an unchanged floating-point operation sequence, so parallel results are
// bit-identical to serial results for any parallelism degree. Tests pin
// this with testutil.BitEqual.
package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelThreshold is the default minimum kernel cost (in
// work units: multiply-adds for GEMM, touched elements for elementwise
// ops) below which kernels stay on the serial fast path. Below it the
// goroutine hand-off costs more than the loop.
const DefaultParallelThreshold = 1 << 15

var (
	// parDegree is the configured shard count; <=0 selects GOMAXPROCS.
	parDegree atomic.Int64
	// parThreshold is the serial-fast-path cutoff in work units.
	parThreshold atomic.Int64

	// engine is the persistent worker pool. Workers are started once,
	// sized from GOMAXPROCS at first parallel kernel, and live for the
	// process lifetime; SetParallelism changes only how many shards a
	// kernel is split into, not the pool size.
	engine struct {
		once sync.Once
		ch   chan func()
	}
)

func init() { parThreshold.Store(DefaultParallelThreshold) }

func startEngine() {
	n := runtime.GOMAXPROCS(0)
	engine.ch = make(chan func(), n)
	for i := 0; i < n; i++ {
		//lint:longlived process-lifetime worker pool: one goroutine per CPU draining the shared task channel
		go func() {
			for f := range engine.ch {
				f()
			}
		}()
	}
}

// SetParallelism sets how many shards parallel kernels split their output
// into. n <= 0 restores the default (GOMAXPROCS at call time); n == 1
// forces fully serial execution. Results are bit-identical for every
// setting. Safe for concurrent use.
func SetParallelism(n int) {
	parDegree.Store(int64(n))
}

// Parallelism returns the effective shard count parallel kernels use.
func Parallelism() int {
	if d := parDegree.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelThreshold sets the minimum kernel cost (work units — see
// DefaultParallelThreshold) that takes the parallel path. w <= 0 restores
// the default.
func SetParallelThreshold(w int) {
	if w <= 0 {
		w = DefaultParallelThreshold
	}
	parThreshold.Store(int64(w))
}

// ParallelThreshold returns the current serial-fast-path cutoff.
func ParallelThreshold() int { return int(parThreshold.Load()) }

// Serial reports whether a kernel split over n shards costing work units
// would run entirely on the calling goroutine. Kernel entry points (and
// hot per-step loops in nn) check it BEFORE constructing the parallel
// closure: a func literal passed to parallelFor escapes to the worker
// pool regardless of which branch runs, so branching first is what makes
// the serial fast path zero-allocation.
func Serial(n, work int) bool {
	return Parallelism() <= 1 || n <= 1 || int64(work) < parThreshold.Load()
}

// SerialRange is Serial with ParallelRange's default elementwise work
// weighting; pair it with ParallelRange the way Serial pairs with
// ParallelRangeCost.
func SerialRange(n int) bool { return Serial(n, 4*n) }

// parallelFor runs fn over contiguous sub-ranges covering [0, n). work is
// the total kernel cost in work units; below the threshold, or when the
// effective parallelism is 1, fn runs serially as fn(0, n). fn must not
// itself invoke a parallel kernel (leaf loops only) — a nested call could
// wait on pool slots its own caller occupies.
func parallelFor(n, work int, fn func(lo, hi int)) {
	p := Parallelism()
	if p > n {
		p = n
	}
	if p <= 1 || int64(work) < parThreshold.Load() {
		fn(0, n)
		return
	}
	engine.once.Do(startEngine)
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		lo, hi := lo, hi
		engine.ch <- func() {
			defer wg.Done()
			fn(lo, hi)
		}
	}
	// The caller computes the first shard itself instead of idling.
	fn(0, chunk)
	wg.Wait()
}

// ParallelRange runs fn over contiguous sub-ranges covering [0, n) on the
// worker pool, falling back to a single serial call below the threshold.
// Deterministic as long as fn writes only indices inside its range (each
// element then has exactly one owner). For elementwise per-step loops —
// activation functions, optimizer updates — that cannot be phrased as a
// single kernel call. fn must not invoke parallel kernels itself.
func ParallelRange(n int, fn func(lo, hi int)) {
	// Elementwise bodies behind this entry point (silu, AdamW) cost a few
	// flops per element; weight the work accordingly.
	parallelFor(n, 4*n, fn)
}

// ParallelRangeCost is ParallelRange with an explicit total work estimate,
// for loops whose per-index cost is far from constant-small (e.g. a row
// loop where each index touches a full feature vector).
func ParallelRangeCost(n, work int, fn func(lo, hi int)) {
	parallelFor(n, work, fn)
}

// mustNotAlias panics when dst shares backing storage with an operand.
// Views made by Reshape share the same backing array, so comparing the
// first element address catches every sharing mode New/Reshape can create.
func mustNotAlias(dst, src *Tensor, op string) {
	if len(dst.Data) > 0 && len(src.Data) > 0 && &dst.Data[0] == &src.Data[0] {
		panic(fmt.Sprintf("tensor: %s destination aliases an operand", op))
	}
}

// ---- GEMM row kernels ----
//
// Each operates on the half-open output-row range [lo, hi) and fully
// overwrites those rows, so destinations may be dirty. The Go kernels
// below are the reference: where useAVX2 holds, the entry points run the
// AVX2 kernels of gemm_amd64.s instead, which reproduce them bit for bit
// (DESIGN.md §11).

// matMulRange is MatMulInto's row kernel.
func matMulRange(r, a, b []float64, lo, hi, k, m int) {
	if useAVX2 {
		raceGEMM(r[lo*m:hi*m], a[lo*k:hi*k], b)
		gemmAxpyAVX2(r, a, b, lo, hi, k, m, k, 1)
		return
	}
	matMulRows(r, a, b, lo, hi, k, m)
}

// matMulTPacked is MatMulTInto's row kernel on AVX2 machines; bt is the
// packed [k,m] transpose of the [m,k] operand.
func matMulTPacked(r, a, bt []float64, lo, hi, k, m int) {
	raceGEMM(r[lo*m:hi*m], a[lo*k:hi*k], bt)
	gemmDotAVX2(r, a, bt, lo, hi, k, m, k, 1)
}

// tMatMulRange is TMatMulInto's row kernel. a is [k,n], so row i of aᵀ
// is a column of a: stride 1 between rows, n between p.
func tMatMulRange(r, a, b []float64, lo, hi, k, n, m int) {
	if useAVX2 {
		raceGEMM(r[lo*m:hi*m], a, b)
		gemmAxpyAVX2(r, a, b, lo, hi, k, m, 1, n)
		return
	}
	tMatMulRows(r, a, b, lo, hi, k, n, m)
}

// matMulRows computes r[i,:] = a[i,:] @ b for i in [lo, hi);
// a is [n,k], b is [k,m], r is [n,m]. Inner order i-p-j keeps the access
// pattern over both operands sequential, as in the original serial kernel.
func matMulRows(r, a, b []float64, lo, hi, k, m int) {
	for i := lo; i < hi; i++ {
		ri := r[i*m : (i+1)*m]
		for j := range ri {
			ri[j] = 0
		}
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			v := ai[p]
			//lint:ignore floateq sparsity fast path: skipping exact zeros is an optimization, not a numeric comparison
			if v == 0 {
				continue
			}
			bp := b[p*m : (p+1)*m]
			for j := range ri {
				ri[j] += v * bp[j]
			}
		}
	}
}

// matMulTRows computes r[i,:] = a[i,:] @ bᵀ for i in [lo, hi);
// a is [n,k], b is [m,k], r is [n,m].
func matMulTRows(r, a, b []float64, lo, hi, k, m int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ri := r[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			bj := b[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += ai[p] * bj[p]
			}
			ri[j] = s
		}
	}
}

// tMatMulRows computes r[i,:] = (aᵀ @ b)[i,:] for i in [lo, hi);
// a is [k,n], b is [k,m], r is [n,m]. The loop keeps the serial kernel's
// p-outer order (sequential scans of a and b); restricting i to the range
// preserves the exact per-element accumulation sequence.
func tMatMulRows(r, a, b []float64, lo, hi, k, n, m int) {
	for i := lo; i < hi; i++ {
		ri := r[i*m : (i+1)*m]
		for j := range ri {
			ri[j] = 0
		}
	}
	for p := 0; p < k; p++ {
		ap := a[p*n : (p+1)*n]
		bp := b[p*m : (p+1)*m]
		for i := lo; i < hi; i++ {
			v := ap[i]
			//lint:ignore floateq sparsity fast path: skipping exact zeros is an optimization, not a numeric comparison
			if v == 0 {
				continue
			}
			ri := r[i*m : (i+1)*m]
			for j := range ri {
				ri[j] += v * bp[j]
			}
		}
	}
}

// ---- destination-passing kernel entry points ----

// MatMulInto writes t @ o into dst ([n,k] @ [k,m] -> [n,m]) and returns
// dst. dst may be dirty (every element is overwritten) but must not share
// storage with t or o.
func (t *Tensor) MatMulInto(o, dst *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	dst.must2D()
	n, k := t.shape[0], t.shape[1]
	k2, m := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v @ %v", t.shape, o.shape))
	}
	if dst.shape[0] != n || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: matmul dst shape %v, want [%d %d]", dst.shape, n, m))
	}
	mustNotAlias(dst, t, "matmul")
	mustNotAlias(dst, o, "matmul")
	if Serial(n, n*k*m) {
		matMulRange(dst.Data, t.Data, o.Data, 0, n, k, m)
		return dst
	}
	parallelFor(n, n*k*m, func(lo, hi int) {
		matMulRange(dst.Data, t.Data, o.Data, lo, hi, k, m)
	})
	return dst
}

// MatMulTInto writes t @ oᵀ into dst ([n,k] @ [m,k]ᵀ -> [n,m]) and
// returns dst. Same dirty-destination / no-alias contract as MatMulInto.
func (t *Tensor) MatMulTInto(o, dst *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	dst.must2D()
	n, k := t.shape[0], t.shape[1]
	m, k2 := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %v @ %vᵀ", t.shape, o.shape))
	}
	if dst.shape[0] != n || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: matmulT dst shape %v, want [%d %d]", dst.shape, n, m))
	}
	mustNotAlias(dst, t, "matmulT")
	mustNotAlias(dst, o, "matmulT")
	if useAVX2 && k > 0 && m > 0 {
		// The SIMD kernel needs each output row's operand columns
		// contiguous: pack oᵀ ([k,m]) once, share it across shards.
		bt := o.TransposeInto(GetDirty(k, m))
		if Serial(n, n*k*m) {
			matMulTPacked(dst.Data, t.Data, bt.Data, 0, n, k, m)
		} else {
			parallelFor(n, n*k*m, func(lo, hi int) {
				matMulTPacked(dst.Data, t.Data, bt.Data, lo, hi, k, m)
			})
		}
		Put(bt)
		return dst
	}
	if Serial(n, n*k*m) {
		matMulTRows(dst.Data, t.Data, o.Data, 0, n, k, m)
		return dst
	}
	parallelFor(n, n*k*m, func(lo, hi int) {
		matMulTRows(dst.Data, t.Data, o.Data, lo, hi, k, m)
	})
	return dst
}

// TMatMulInto writes tᵀ @ o into dst ([k,n]ᵀ @ [k,m] -> [n,m]) and
// returns dst. Same dirty-destination / no-alias contract as MatMulInto.
func (t *Tensor) TMatMulInto(o, dst *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	dst.must2D()
	k, n := t.shape[0], t.shape[1]
	k2, m := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch %vᵀ @ %v", t.shape, o.shape))
	}
	if dst.shape[0] != n || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: tmatmul dst shape %v, want [%d %d]", dst.shape, n, m))
	}
	mustNotAlias(dst, t, "tmatmul")
	mustNotAlias(dst, o, "tmatmul")
	if Serial(n, n*k*m) {
		tMatMulRange(dst.Data, t.Data, o.Data, 0, n, k, n, m)
		return dst
	}
	parallelFor(n, n*k*m, func(lo, hi int) {
		tMatMulRange(dst.Data, t.Data, o.Data, lo, hi, k, n, m)
	})
	return dst
}

// transposeBlock is the tile edge for the cache-blocked transpose: 32×32
// float64 tiles (two 8 KiB operand footprints) keep both the row-major
// reads and the column-major writes inside L1.
const transposeBlock = 32

// TransposeInto writes tᵀ into dst ([n,m] -> [m,n]) using cache-blocked
// tiles, and returns dst. dst may be dirty but must not share storage
// with t.
func (t *Tensor) TransposeInto(dst *Tensor) *Tensor {
	t.must2D()
	dst.must2D()
	n, m := t.shape[0], t.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: transpose dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	mustNotAlias(dst, t, "transpose")
	jBlocks := (m + transposeBlock - 1) / transposeBlock
	// Partition over tile columns of t (= row blocks of dst), so each dst
	// row has exactly one owner.
	if Serial(jBlocks, n*m) {
		transposeTiles(dst.Data, t.Data, 0, jBlocks, n, m)
		return dst
	}
	parallelFor(jBlocks, n*m, func(blo, bhi int) {
		transposeTiles(dst.Data, t.Data, blo, bhi, n, m)
	})
	return dst
}

// transposeTiles transposes the tile columns [blo, bhi) of the [n,m]
// source a into r ([m,n]), walking transposeBlock×transposeBlock tiles.
func transposeTiles(r, a []float64, blo, bhi, n, m int) {
	for jb := blo; jb < bhi; jb++ {
		j0, j1 := jb*transposeBlock, (jb+1)*transposeBlock
		if j1 > m {
			j1 = m
		}
		for i0 := 0; i0 < n; i0 += transposeBlock {
			i1 := i0 + transposeBlock
			if i1 > n {
				i1 = n
			}
			for i := i0; i < i1; i++ {
				row := a[i*m : (i+1)*m]
				for j := j0; j < j1; j++ {
					r[j*n+i] = row[j]
				}
			}
		}
	}
}

// AddInto writes t + o elementwise into dst and returns dst. dst may
// alias t or o (pure elementwise).
func (t *Tensor) AddInto(o, dst *Tensor) *Tensor {
	t.mustSameShape(o)
	t.mustSameShape(dst)
	td, od, dd := t.Data, o.Data, dst.Data
	if Serial(len(td), len(td)) {
		addRange(dd, td, od, 0, len(td))
		return dst
	}
	parallelFor(len(td), len(td), func(lo, hi int) {
		addRange(dd, td, od, lo, hi)
	})
	return dst
}

// addRange writes r[i] = a[i] + b[i] for i in [lo, hi).
func addRange(r, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r[i] = a[i] + b[i]
	}
}

// ScaleInto writes alpha*t elementwise into dst and returns dst. dst may
// alias t.
func (t *Tensor) ScaleInto(alpha float64, dst *Tensor) *Tensor {
	t.mustSameShape(dst)
	td, dd := t.Data, dst.Data
	if Serial(len(td), len(td)) {
		scaleRange(dd, td, alpha, 0, len(td))
		return dst
	}
	parallelFor(len(td), len(td), func(lo, hi int) {
		scaleRange(dd, td, alpha, lo, hi)
	})
	return dst
}

// scaleRange writes r[i] = alpha * a[i] for i in [lo, hi).
func scaleRange(r, a []float64, alpha float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r[i] = alpha * a[i]
	}
}

// SoftmaxRowsInto writes the numerically stable row-wise softmax of the
// 2-D tensor t into dst and returns dst. dst may alias t (rows are
// independent and processed in place).
func (t *Tensor) SoftmaxRowsInto(dst *Tensor) *Tensor {
	t.must2D()
	t.mustSameShape(dst)
	rows, cols := t.shape[0], t.shape[1]
	// exp dominates: weight each element as several work units.
	if Serial(rows, 8*rows*cols) {
		softmaxRows(dst, t, 0, rows)
		return dst
	}
	parallelFor(rows, 8*rows*cols, func(lo, hi int) {
		softmaxRows(dst, t, lo, hi)
	})
	return dst
}

// softmaxRows softmaxes rows [lo, hi) of a into r.
func softmaxRows(r, a *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		SoftmaxInto(r.Row(i), a.Row(i))
	}
}
