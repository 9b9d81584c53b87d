package tensor

import (
	"math"
	"testing"
)

// Reference kernels: the naive loops the tiled implementations must
// reproduce bit for bit. Each accumulates in ascending p order per
// output element, exactly like the production kernels, so comparisons
// below demand exact equality rather than a tolerance. The float32
// conversions round every product before its add: without them a
// compiler may fuse the pair into an FMA (arm64 does), and the
// reference would stop defining the same bits on every GOARCH.

func refMatMulAccum(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			for j := 0; j < n; j++ {
				dst.data[i*n+j] += float32(av * b.data[p*n+j])
			}
		}
	}
}

func refMatMulT(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a.data[i*k+p] * b.data[j*k+p])
			}
			dst.data[i*n+j] = s
		}
	}
}

func refMatMulTAccum(dst, a, b *Tensor) {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[p*m+i]
			for j := 0; j < n; j++ {
				dst.data[i*n+j] += float32(av * b.data[p*n+j])
			}
		}
	}
}

// expectBitIdentical fails unless got and want agree in every bit.
func expectBitIdentical(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if len(got.data) != len(want.data) {
		t.Fatalf("%s: length %d vs %d", label, len(got.data), len(want.data))
	}
	for i := range got.data {
		if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
			t.Fatalf("%s: element %d differs: %g (%#x) vs %g (%#x)",
				label, i, got.data[i], math.Float32bits(got.data[i]),
				want.data[i], math.Float32bits(want.data[i]))
		}
	}
}

// boundaryShapes straddle the 4-row tile and 4-step reduction
// boundaries (the classic off-by-one surface for blocked kernels) and
// the row kernel's 8-lane tail with odd inner/outer dims, then add the
// split workload's own shapes (benchShapes).
var boundaryShapes = append([]struct{ m, k, n int }{
	{1, 1, 1},
	{2, 3, 5},
	{3, 7, 9},
	{4, 4, 4},
	{5, 13, 3},
	{63, 31, 17},
	{64, 33, 19},
	{65, 29, 21},
	{66, 5, 1},
	{7, 64, 65},
}, benchShapes...)

func TestMatMulVariantsMatchReferenceAtTileBoundaries(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		for _, s := range boundaryShapes {
			rng := NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n))
			a := NewNormal(rng, 1, s.m, s.k)
			b2 := NewNormal(rng, 1, s.k, s.n)
			bt := NewNormal(rng, 1, s.n, s.k)
			at := NewNormal(rng, 1, s.k, s.m)
			seed := NewNormal(rng, 1, s.m, s.n)

			got := New(s.m, s.n)
			want := New(s.m, s.n)
			if err := MatMul(got, a, b2); err != nil {
				t.Fatal(err)
			}
			refMatMulAccum(want, a, b2)
			expectBitIdentical(t, got, want, "MatMul")

			got = seed.Clone()
			want = seed.Clone()
			if err := MatMulAccum(got, a, b2); err != nil {
				t.Fatal(err)
			}
			refMatMulAccum(want, a, b2)
			expectBitIdentical(t, got, want, "MatMulAccum")

			got = New(s.m, s.n)
			want = New(s.m, s.n)
			if err := MatMulT(got, a, bt); err != nil {
				t.Fatal(err)
			}
			refMatMulT(want, a, bt)
			expectBitIdentical(t, got, want, "MatMulT")

			got = seed.Clone()
			want = seed.Clone()
			if err := MatMulTAccum(got, at, b2); err != nil {
				t.Fatal(err)
			}
			refMatMulTAccum(want, at, b2)
			expectBitIdentical(t, got, want, "MatMulTAccum")
		}
	}
}

// TestKernelsBitIdenticalAcrossParallelism pins constraint #1 of the
// worker pool: every kernel must produce the same bits at any
// parallelism setting.
func TestKernelsBitIdenticalAcrossParallelism(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)

	m, k, n := 67, 45, 53
	rng := NewRNG(99)
	a := NewNormal(rng, 1, m, k)
	b2 := NewNormal(rng, 1, k, n)
	bt := NewNormal(rng, 1, n, k)
	at := NewNormal(rng, 1, k, m)
	// Softmax and Add operands large enough to clear their fan-out
	// grains (softmaxGrainElems, elemwiseGrain) so the pooled path
	// actually runs at parallelism > 1.
	sx := NewNormal(rng, 1, 1200, 45)
	x := NewNormal(rng, 1, 300, 300)
	y := NewNormal(rng, 1, 300, 300)

	type result struct{ mm, mma, mmt, mmta, sm, add *Tensor }
	run := func(par int) result {
		SetParallelism(par)
		r := result{
			mm: New(m, n), mma: New(m, n), mmt: New(m, n),
			mmta: New(m, n), sm: New(1200, 45), add: New(300, 300),
		}
		if err := MatMul(r.mm, a, b2); err != nil {
			t.Fatal(err)
		}
		if err := MatMulAccum(r.mma, a, b2); err != nil {
			t.Fatal(err)
		}
		if err := MatMulT(r.mmt, a, bt); err != nil {
			t.Fatal(err)
		}
		if err := MatMulTAccum(r.mmta, at, b2); err != nil {
			t.Fatal(err)
		}
		if err := SoftmaxRows(r.sm, sx); err != nil {
			t.Fatal(err)
		}
		if err := Add(r.add, x, y); err != nil {
			t.Fatal(err)
		}
		return r
	}

	serial := run(1)
	for _, par := range []int{2, 8} {
		got := run(par)
		expectBitIdentical(t, got.mm, serial.mm, "MatMul")
		expectBitIdentical(t, got.mma, serial.mma, "MatMulAccum")
		expectBitIdentical(t, got.mmt, serial.mmt, "MatMulT")
		expectBitIdentical(t, got.mmta, serial.mmta, "MatMulTAccum")
		expectBitIdentical(t, got.sm, serial.sm, "SoftmaxRows")
		expectBitIdentical(t, got.add, serial.add, "Add")
	}
}
