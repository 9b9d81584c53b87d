package tensor

import (
	"math"
	"testing"
)

// axpySpecials are the IEEE edge cases the row kernel must round
// exactly like the generic one: signed zeros, subnormals, the largest
// finite values (whose products overflow to ±Inf), infinities and NaN.
var axpySpecials = []float32{
	0,
	float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32,
	-math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // largest subnormal
	1e-30,
	math.MaxFloat32,
	-math.MaxFloat32,
	3e30,
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	float32(math.NaN()),
	1,
	-1,
}

// TestAxpy4AVX2MatchesGeneric compares the assembly row kernel with the
// generic one bit for bit at every length through the 8-lane main loop
// and its scalar tail, on normal draws salted with IEEE special values.
// A sentinel past the row end catches out-of-bounds stores.
//
// A NaN result matches any NaN. Which input NaN's payload survives an
// add or multiply of two NaNs depends on operand order, which the Go
// spec leaves to the compiler (the generic loop compiles with mixed
// orders), so only non-NaN results carry a bit-level contract.
func TestAxpy4AVX2MatchesGeneric(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU or OS lacks AVX2")
	}
	rng := NewRNG(12)
	draw := func() float32 {
		if rng.Intn(3) == 0 {
			return axpySpecials[rng.Intn(len(axpySpecials))]
		}
		return float32(rng.NormFloat64())
	}
	row := func(n int) []float32 {
		r := make([]float32, n)
		for j := range r {
			r[j] = draw()
		}
		return r
	}
	const sentinel = 12345.5
	for n := 0; n <= 33; n++ {
		for trial := 0; trial < 50; trial++ {
			d := row(n)
			b := row(4 * n)
			a0, a1, a2, a3 := draw(), draw(), draw(), draw()

			want := append([]float32(nil), d...)
			axpy4Generic(want, b, a0, a1, a2, a3)

			got := append(append([]float32(nil), d...), sentinel)
			if n > 0 {
				axpy4AVX2(&got[0], &b[0], n, a0, a1, a2, a3)
			}
			if got[n] != sentinel {
				t.Fatalf("n=%d: store past the row end", n)
			}
			for j := range want {
				bothNaN := got[j] != got[j] && want[j] != want[j]
				if !bothNaN && math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("n=%d trial %d col %d: avx2 %g (%#x) vs generic %g (%#x)",
						n, trial, j, got[j], math.Float32bits(got[j]),
						want[j], math.Float32bits(want[j]))
				}
			}
		}
	}
}

// TestMatMulGenericFallbackMatchesReference reruns the kernel table
// with the AVX2 path switched off, so the fallback that CPUs without
// AVX2 and other GOARCHes run is pinned on amd64 too.
func TestMatMulGenericFallbackMatchesReference(t *testing.T) {
	defer func(v bool) { hasAVX2 = v }(hasAVX2)
	hasAVX2 = false
	TestMatMulVariantsMatchReferenceAtTileBoundaries(t)
}
