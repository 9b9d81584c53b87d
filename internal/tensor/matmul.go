package tensor

import (
	"fmt"
	"sync"
)

// Blocking parameters for the tiled kernels. All four variants
// partition work by output row, so any parallel split produces the
// same per-element accumulation order as the serial kernel and the
// results are bit-identical at every parallelism setting.
// matmulParallelFlops is the approximate multiply-add count below
// which fanning a kernel out costs more than it saves; it sets the
// ParallelFor grain so tiny matmuls stay on the calling goroutine.
const matmulParallelFlops = 1 << 16

// matmulGrain converts a per-row cost into a ParallelFor grain: the
// number of output rows that amount to matmulParallelFlops of work.
func matmulGrain(flopsPerRow int) int {
	if flopsPerRow <= 0 {
		return 1 << 30
	}
	g := matmulParallelFlops / flopsPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul computes dst = a @ b for rank-2 tensors: a is (m,k), b is
// (k,n), dst is (m,n). dst must not alias a or b.
//
// The inner loop is written in the ikj order so the innermost traversal
// is over contiguous rows of b and dst, which is dramatically faster
// than the naive ijk order on row-major data.
func MatMul(dst, a, b *Tensor) error {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return fmt.Errorf("%w: matmul requires rank-2 operands, got %v @ %v -> %v",
			ErrShape, a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul %v @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	dst.Zero()
	matmulAccum(dst.data, a.data, b.data, m, k, n, k, 1)
	return nil
}

// MatMulAccum computes dst += a @ b with the same shape rules as
// MatMul. It does not zero dst first.
func MatMulAccum(dst, a, b *Tensor) error {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return fmt.Errorf("%w: matmul requires rank-2 operands, got %v @ %v -> %v",
			ErrShape, a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul %v @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	matmulAccum(dst.data, a.data, b.data, m, k, n, k, 1)
	return nil
}

// matmulAccum computes dst += A @ b, where A is (m,k) read through
// strides, A[i][p] = a[i*rs+p*cs]: (k, 1) reads a row-major a, (1, m)
// reads the transpose of a row-major (k,m) a in place.
func matmulAccum(dst, a, b []float32, m, k, n, rs, cs int) {
	g := matmulGrain(k * n)
	if serialFor(m, g) {
		matmulAccumRange(dst, a, b, 0, m, k, n, rs, cs)
		return
	}
	ParallelFor(m, g, func(lo, hi int) {
		matmulAccumRange(dst, a, b, lo, hi, k, n, rs, cs)
	})
}

// matmulRowTile is the number of output rows that share each pass
// over a block of four b rows, so those b rows are loaded from memory
// once per tile instead of once per output row.
const matmulRowTile = 4

// matmulAccumRange accumulates output rows [rowLo, rowHi) of
// dst += A @ b (strides as in matmulAccum) through the axpy4
// row kernel, four reduction steps per call.
//
// Bit-identity discipline: per (i, j) the reduction runs in strictly
// ascending p order into a single accumulator, each product rounded
// before its add (axpy.go). Row tiling and the p-blocking reorder only
// memory access, never an element's add sequence, so the result is
// the naive loop's at every parallelism setting.
func matmulAccumRange(dst, a, b []float32, rowLo, rowHi, k, n, rs, cs int) {
	for i0 := rowLo; i0 < rowHi; i0 += matmulRowTile {
		i1 := min(i0+matmulRowTile, rowHi)
		p := 0
		for ; p+4 <= k; p += 4 {
			bp := b[p*n:][:4*n]
			for i := i0; i < i1; i++ {
				ai := a[i*rs+p*cs:]
				axpy4(dst[i*n:][:n], bp, ai[0], ai[cs], ai[2*cs], ai[3*cs])
			}
		}
		for ; p < k; p++ {
			bp := b[p*n:][:n]
			for i := i0; i < i1; i++ {
				axpy1(dst[i*n:][:n], bp, a[i*rs+p*cs])
			}
		}
	}
}

// MatMulT computes dst = a @ bᵀ: a is (m,k), b is (n,k), dst is (m,n).
// It transposes b into a pooled (k,n) buffer and runs the accumulating
// kernel into the zeroed dst, so each output element sums its products
// in ascending p order from +0, exactly as a dot-product loop would.
func MatMulT(dst, a, b *Tensor) error {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return fmt.Errorf("%w: matmulT requires rank-2 operands", ErrShape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmulT %v @ %vᵀ -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	buf := transposeBufs.Get().(*[]float32)
	if cap(*buf) < k*n {
		*buf = make([]float32, k*n)
	}
	bt := (*buf)[:k*n]
	transposeInto(bt, b.data, n, k)
	dst.Zero()
	matmulAccum(dst.data, a.data, bt, m, k, n, k, 1)
	transposeBufs.Put(buf)
	return nil
}

// transposeBufs recycles MatMulT's transpose buffers. transposeInto
// overwrites every element it hands to the kernel, so a recycled
// buffer's old contents never matter.
var transposeBufs = sync.Pool{New: func() any { return new([]float32) }}

// MatMulTAccum computes dst += aᵀ @ b: a is (k,m), b is (k,n), dst is
// (m,n). This is the weight-gradient kernel of a linear layer
// (dW += xᵀ @ dy) without materializing xᵀ.
func MatMulTAccum(dst, a, b *Tensor) error {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return fmt.Errorf("%w: matmulTAccum requires rank-2 operands", ErrShape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmulTAccum %vᵀ @ %v -> %v", ErrShape, a.shape, b.shape, dst.shape)
	}
	matmulAccum(dst.data, a.data, b.data, m, k, n, 1, m)
	return nil
}
