package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks at the 512-cube shape used by the compute-plane
// acceptance numbers in docs/PERFORMANCE.md. Each variant is measured
// at the pool's configured parallelism ("pool") and, for comparison,
// pinned to one worker ("serial"), so the parallel speedup is visible
// in one -bench run.

const benchDim = 512

func benchTensors(b *testing.B) (dst, x, y *Tensor) {
	b.Helper()
	rng := NewRNG(1)
	dst = New(benchDim, benchDim)
	x = NewNormal(rng, 1, benchDim, benchDim)
	y = NewNormal(rng, 1, benchDim, benchDim)
	return dst, x, y
}

// benchPoolSerial runs op once per iteration, first at the configured
// parallelism, then pinned to a single worker.
func benchPoolSerial(b *testing.B, op func() error) {
	run := func(b *testing.B) {
		b.SetBytes(3 * benchDim * benchDim * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pool", run)
	b.Run("serial", func(b *testing.B) {
		prev := Parallelism()
		SetParallelism(1)
		defer SetParallelism(prev)
		run(b)
	})
}

func BenchmarkMatMul(b *testing.B) {
	dst, x, y := benchTensors(b)
	benchPoolSerial(b, func() error { return MatMul(dst, x, y) })
}

func BenchmarkMatMulAccum(b *testing.B) {
	dst, x, y := benchTensors(b)
	benchPoolSerial(b, func() error { return MatMulAccum(dst, x, y) })
}

func BenchmarkMatMulT(b *testing.B) {
	dst, x, y := benchTensors(b)
	benchPoolSerial(b, func() error { return MatMulT(dst, x, y) })
}

func BenchmarkMatMulTAccum(b *testing.B) {
	dst, x, y := benchTensors(b)
	benchPoolSerial(b, func() error { return MatMulTAccum(dst, x, y) })
}

// benchShapes are the split workload's matmul shapes (m,k,n) on the
// OPT-tiny body at batch 4 × seq 32, i.e. 128 token rows: the d=64
// projections, the FFN up and down projections, the rank-8 LoRA down
// and up adapters, and one attention head (seq 32, head dim 16).
var benchShapes = []struct{ m, k, n int }{
	{128, 64, 64},
	{128, 64, 256},
	{128, 256, 64},
	{128, 64, 8},
	{128, 8, 64},
	{32, 16, 32},
}

// BenchmarkWorkloadShapes runs every matmul variant at benchShapes and
// the configured parallelism. At these sizes per-call and per-row
// overhead weigh as much as the inner loop, unlike at 512³.
func BenchmarkWorkloadShapes(b *testing.B) {
	for _, s := range benchShapes {
		rng := NewRNG(3)
		dst := New(s.m, s.n)
		x := NewNormal(rng, 1, s.m, s.k)
		xt := NewNormal(rng, 1, s.k, s.m)
		y := NewNormal(rng, 1, s.k, s.n)
		yt := NewNormal(rng, 1, s.n, s.k)
		variants := []struct {
			name string
			op   func() error
		}{
			{"MatMul", func() error { return MatMul(dst, x, y) }},
			{"MatMulAccum", func() error { return MatMulAccum(dst, x, y) }},
			{"MatMulT", func() error { return MatMulT(dst, x, yt) }},
			{"MatMulTAccum", func() error { return MatMulTAccum(dst, xt, y) }},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", v.name, s.m, s.k, s.n), func(b *testing.B) {
				b.SetBytes(int64(4 * (s.m*s.k + s.k*s.n + s.m*s.n)))
				for i := 0; i < b.N; i++ {
					if err := v.op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := NewRNG(2)
	x := NewNormal(rng, 1, benchDim, benchDim)
	dst := New(benchDim, benchDim)
	b.SetBytes(2 * benchDim * benchDim * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SoftmaxRows(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGELU runs tanh-GELU forward and backward at the FFN
// activation shape of the split workloads (128 tokens × 256 hidden),
// serially: the nn layer fans larger tensors out over the pool itself.
func BenchmarkGELU(b *testing.B) {
	const rows, cols = 128, 256
	rng := NewRNG(3)
	x := NewNormal(rng, 1, rows, cols).Data()
	dy := NewNormal(rng, 1, rows, cols).Data()
	dst := make([]float32, len(x))
	b.Run("forward", func(b *testing.B) {
		b.SetBytes(2 * rows * cols * 4)
		for i := 0; i < b.N; i++ {
			GELU(dst, x)
		}
	})
	b.Run("backward", func(b *testing.B) {
		b.SetBytes(3 * rows * cols * 4)
		for i := 0; i < b.N; i++ {
			GELUGrad(dst, x, dy)
		}
	})
}
