package tensor

// hasAVX2FMA gates the vector exp kernels: AVX2 (hasAVX2) plus the
// CPUID.1:ECX FMA bit. math.Exp takes its FMA branch exactly when the
// CPU has AVX and FMA, so wherever the kernels run they transcribe the
// sequence math.Exp itself executes; everywhere else the generic code
// runs. Only tests change it, to pin the fallback on amd64.
var hasAVX2FMA = hasAVX2 && detectFMA()

func detectFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}

// vexpTab holds the kernels' float constants, each splat across four
// float64 lanes at the offset vexp_amd64.s names for it. The compiler
// rounds every entry, so 3*geluC1 and 0.5*tanhMaxLog round exactly as
// they do in geluGradScalar and math.tanh; the exp entries are the
// literals of math's exp_amd64.s.
var vexpTab = [...][4]float64{
	splat4(1.4426950408889634073599246810018920),                  // LOG2E
	splat4(0.69314718055966295651160180568695068359375),           // LN2U
	splat4(0.28235290563031577122588448175013436025525412068e-12), // LN2L
	splat4(0.0625),
	splat4(2.4801587301587301587e-5), // Taylor coefficients, 1/8! ...
	splat4(1.9841269841269841270e-4),
	splat4(1.3888888888888888889e-3),
	splat4(8.3333333333333333333e-3),
	splat4(4.1666666666666666667e-2),
	splat4(1.6666666666666666667e-1), // ... 1/3!
	splat4(0.5),
	splat4(1),
	splat4(2),
	splat4(7.09782712893384e+02), // exp overflow threshold
	splat4(geluC0),
	splat4(geluC1),
	splat4(3 * geluC1),
	splat4(0.625),
	splat4(0.5 * tanhMaxLog),
	splat4(tanhP[0]),
	splat4(tanhP[1]),
	splat4(tanhP[2]),
	splat4(tanhQ[0]),
	splat4(tanhQ[1]),
	splat4(tanhQ[2]),
}

func splat4(v float64) [4]float64 { return [4]float64{v, v, v, v} }

// gelu, geluGrad and expShift run the vector kernels over the largest
// multiple of four elements and the generic code over the rest. GELU
// and GELUGrad size dst and dy to len(x); the assembly writes through
// dst unchecked.
func gelu(dst, x []float32) {
	n := 0
	if hasAVX2FMA && len(x) >= 4 {
		n = len(x) &^ 3
		geluAVX2(&dst[0], &x[0], n)
	}
	geluGeneric(dst[n:], x[n:])
}

func geluGrad(dx, x, dy []float32) {
	n := 0
	if hasAVX2FMA && len(x) >= 4 {
		n = len(x) &^ 3
		geluGradAVX2(&dx[0], &x[0], &dy[0], n)
	}
	geluGradGeneric(dx[n:], x[n:], dy[n:])
}

func expShift(dst, a []float32, m float32) {
	dst = dst[:len(a)]
	n := 0
	if hasAVX2FMA && len(a) >= 4 {
		n = expShiftAVX2(&dst[0], &a[0], len(a)&^3, m)
	}
	expShiftGeneric(dst[n:], a[n:], m)
}

// geluAVX2 is geluGeneric over n elements, n a multiple of 4.
//
//go:noescape
func geluAVX2(dst, x *float32, n int)

// geluGradAVX2 is geluGradGeneric over n elements, n a multiple of 4.
//
//go:noescape
func geluGradAVX2(dx, x, dy *float32, n int)

// expShiftAVX2 is expShiftGeneric over up to n elements, n a multiple
// of 4. It stops before the first group of four holding a lane that
// math.Exp handles out of line (NaN, overflow, a subnormal result) and
// returns how many elements it wrote; a is untouched from there on even
// when dst aliases it.
//
//go:noescape
func expShiftAVX2(dst, a *float32, n int, m float32) (done int)
