package tensor

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

var vexpFull = flag.Bool("vexp-full", false,
	"TestVexpFullSweep: compare the vector kernels with the generic code on all 2^32 float32 inputs (minutes)")

// vexpKernel is one vector kernel with the per-element reference it
// must reproduce bit for bit. run calls the dispatching entry point, so
// a table run with hasAVX2FMA off pins the fallback too.
type vexpKernel struct {
	name string
	run  func(dst, x []float32)
	ref  func(x float32) float32
}

// vexpDy and vexpShift are the fixed dy factor of the GELU-backward
// kernel and the max subtracted by the softmax one: neither 1 nor 0,
// so the kernels' float32 multiply and subtract are exercised.
const (
	vexpDy    = float32(-1.375)
	vexpShift = float32(0.75)
)

var vexpKernels = []vexpKernel{
	{"gelu", gelu, geluScalar},
	{"geluGrad", func(dst, x []float32) {
		dy := make([]float32, len(x))
		for i := range dy {
			dy[i] = vexpDy
		}
		geluGrad(dst, x, dy)
	}, func(v float32) float32 { return vexpDy * geluGradScalar(v) }},
	{"expShift", func(dst, x []float32) { expShift(dst, x, vexpShift) },
		func(v float32) float32 { return float32(math.Exp(float64(v - vexpShift))) }},
	{"expShift/m=0", func(dst, x []float32) { expShift(dst, x, 0) },
		func(v float32) float32 { return float32(math.Exp(float64(v))) }},
}

// vexpSpecials are the IEEE edge cases: signed zeros, subnormals, the
// largest finite values, infinities and NaN.
var vexpSpecials = []float32{
	0,
	float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32,
	-math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff),
	math.Float32frombits(0x807fffff),
	1e-30, -1e-30,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc00001),
	1, -1, -1e9,
}

// sameBits reports bit equality, except that any NaN matches any NaN:
// which NaN payload survives an operation on two NaNs depends on
// operand order, which the Go spec leaves to the compiler.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkVexp runs every kernel over xs in one call (lengths not a
// multiple of four exercise the generic tail) and compares each output
// with the reference.
func checkVexp(t *testing.T, xs []float32) {
	t.Helper()
	got := make([]float32, len(xs))
	for _, k := range vexpKernels {
		k.run(got, xs)
		for i, x := range xs {
			if want := k.ref(x); !sameBits(got[i], want) {
				t.Fatalf("%s(%g [%#08x]) = %g [%#08x], want %g [%#08x]", k.name,
					x, math.Float32bits(x), got[i], math.Float32bits(got[i]),
					want, math.Float32bits(want))
			}
		}
	}
}

// band returns every float32 within w ulps of x, both signs.
func band(x float32, w uint32) []float32 {
	b := math.Float32bits(x)
	out := make([]float32, 0, 4*w+2)
	for u := b - w; u <= b+w; u++ {
		out = append(out, math.Float32frombits(u), math.Float32frombits(u|1<<31))
	}
	return out
}

// geluInnerAt returns the float32 x at which geluC0·(x + geluC1·x³)
// reaches c, the point where math.tanh changes regime inside GELU.
func geluInnerAt(c float64) float32 {
	lo, hi := 0.0, 64.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if geluC0*(mid+geluC1*mid*mid*mid) < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	return float32(lo)
}

// TestVexpKernelsMatchGeneric compares the vector kernels with the
// generic code bit for bit: a strided sweep over all float32 bit
// patterns, every float32 near math.tanh's regime edges (as seen
// through GELU's inner argument) and near math.Exp's underflow,
// subnormal and overflow edges, and the IEEE specials.
func TestVexpKernelsMatchGeneric(t *testing.T) {
	if !hasAVX2FMA {
		t.Log("CPU lacks AVX2+FMA: checking the generic fallback only")
	}
	const stride = 1009 // prime, so the low mantissa bits vary too
	var sweep []float32
	for u := uint64(0); u < 1<<32; u += stride {
		sweep = append(sweep, math.Float32frombits(uint32(u)))
	}
	checkVexp(t, sweep)

	const w = 1 << 15
	var edges []float32
	for _, x := range []float32{
		geluInnerAt(0.625), geluInnerAt(0.5 * tanhMaxLog),
		-745.2, // math.Exp's biased exponent crosses -52: 0 below
		-708.4, // ... crosses 0: subnormal results below
		709.44, // ... reaches 2047: +Inf
		709.78, // the overflow threshold
	} {
		edges = append(edges, band(x, w)...)
	}
	checkVexp(t, edges)

	// Specials at every lane position, and on their own.
	for _, s := range vexpSpecials {
		xs := []float32{0.5, -3, 2, 0.25, 1, -0.5, 7, 0.125, -2}
		for i := range xs {
			ys := append([]float32(nil), xs...)
			ys[i] = s
			checkVexp(t, ys)
		}
	}
	checkVexp(t, vexpSpecials)
}

// TestVexpGenericFallbackMatchesReference reruns the kernel table with
// the vector path switched off, so the code CPUs without AVX2+FMA and
// other GOARCHes run is pinned on amd64 too.
func TestVexpGenericFallbackMatchesReference(t *testing.T) {
	defer func(v bool) { hasAVX2FMA = v }(hasAVX2FMA)
	hasAVX2FMA = false
	TestVexpKernelsMatchGeneric(t)
}

// TestVexpExpShiftCoverage pins which groups the softmax kernel takes
// itself: ordinary arguments and arguments that underflow to +0 (the
// causal mask's -1e9 among them) never leave the vector path, and a
// group it hands back is finished by the generic code even in place.
func TestVexpExpShiftCoverage(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("CPU lacks AVX2+FMA")
	}
	a := []float32{0, -1, -3.5, -20, -100, -700, -746, -1e9,
		-math.MaxFloat32, float32(math.Inf(-1)), -0.001, -88}
	dst := make([]float32, len(a))
	if n := expShiftAVX2(&dst[0], &a[0], len(a), 0); n != len(a) {
		t.Fatalf("vector path stopped at %d of %d", n, len(a))
	}
	for i, v := range a {
		if want := float32(math.Exp(float64(v))); !sameBits(dst[i], want) {
			t.Fatalf("exp(%g) = %g, want %g", v, dst[i], want)
		}
	}

	// A NaN and a subnormal result in the third group: the kernel
	// writes the first two groups and hands back the rest.
	b := []float32{-1, -2, -3, -4, -5, -6, -7, -8, -9, float32(math.NaN()), -720, -12, -13}
	if n := expShiftAVX2(&dst[0], &b[0], 12, 0); n != 8 {
		t.Fatalf("vector path stopped at %d, want 8", n)
	}
	want := make([]float32, len(b))
	expShiftGeneric(want, b, 0.5)
	expShift(b, b, 0.5) // in place, as SoftmaxRows(x, x) runs it
	for i := range b {
		if !sameBits(b[i], want[i]) {
			t.Fatalf("in place [%d] = %g, want %g", i, b[i], want[i])
		}
	}
}

// TestVexpFullSweep compares the vector kernels with the generic code
// on every float32 input. It takes minutes, so it runs only with
//
//	go test -run TestVexpFullSweep -vexp-full ./internal/tensor
func TestVexpFullSweep(t *testing.T) {
	if !*vexpFull {
		t.Skip("pass -vexp-full to sweep all 2^32 inputs")
	}
	if !hasAVX2FMA {
		t.Skip("CPU lacks AVX2+FMA")
	}
	const chunk = 1 << 20
	workers := runtime.GOMAXPROCS(0)
	for _, k := range vexpKernels {
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			bad     int
			example string
		)
		next := make(chan uint64)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				xs := make([]float32, chunk)
				got := make([]float32, chunk)
				for base := range next {
					for i := range xs {
						xs[i] = math.Float32frombits(uint32(base) + uint32(i))
					}
					k.run(got, xs)
					for i, x := range xs {
						if want := k.ref(x); !sameBits(got[i], want) {
							mu.Lock()
							if bad == 0 {
								example = formatMismatch(x, got[i], want)
							}
							bad++
							mu.Unlock()
						}
					}
				}
			}()
		}
		for base := uint64(0); base < 1<<32; base += chunk {
			next <- base
		}
		close(next)
		wg.Wait()
		if bad != 0 {
			t.Errorf("%s: %d of 2^32 inputs differ, first %s", k.name, bad, example)
		} else {
			t.Logf("%s: all 2^32 inputs bit-identical", k.name)
		}
	}
}

func formatMismatch(x, got, want float32) string {
	return fmt.Sprintf("%#08x -> %#08x, want %#08x",
		math.Float32bits(x), math.Float32bits(got), math.Float32bits(want))
}
