package tensor

import "math"

// Transcendental kernels under tanh-GELU and softmax. The generic
// functions below are the definition of every bit these kernels
// produce; vexp_amd64.s transcribes them, together with math.Exp's
// amd64 FMA path, across four float64 lanes (docs/PERFORMANCE.md,
// "Vector exp").

const (
	geluC0 = 0.7978845608028654 // sqrt(2/pi)
	geluC1 = 0.044715

	// tanhMaxLog and tanhP/tanhQ are math.tanh's constants: past
	// 0.5·tanhMaxLog tanh rounds to ±1, below 0.625 it is the
	// Cody–Waite rational x + x³·P(x²)/Q(x²).
	tanhMaxLog = 8.8029691931113054295988e+01 // log(2**127)
)

var (
	tanhP = [...]float64{
		-9.64399179425052238628e-1,
		-9.92877231001918586564e1,
		-1.61468768441708447952e3,
	}
	tanhQ = [...]float64{
		1.12811678491632931402e2,
		2.23548839060100448583e3,
		4.84406305325125486048e3,
	}
)

// GELU writes the tanh-approximation GELU of x (as used by OPT/GPT
// models) into dst. dst must be at least as long as x.
func GELU(dst, x []float32) {
	gelu(dst[:len(x)], x)
}

// GELUGrad writes dx = dy·gelu'(x). dx and dy must be at least as long
// as x.
func GELUGrad(dx, x, dy []float32) {
	geluGrad(dx[:len(x)], x, dy[:len(x)])
}

func geluScalar(v float32) float32 {
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(geluC0*(x+geluC1*x*x*x))))
}

func geluGradScalar(v float32) float32 {
	x := float64(v)
	inner := geluC0 * (x + geluC1*x*x*x)
	t := math.Tanh(inner)
	dInner := geluC0 * (1 + 3*geluC1*x*x)
	return float32(0.5*(1+t) + 0.5*x*(1-t*t)*dInner)
}

func geluGeneric(dst, x []float32) {
	for i, v := range x {
		dst[i] = geluScalar(v)
	}
}

func geluGradGeneric(dx, x, dy []float32) {
	for i, v := range x {
		dx[i] = dy[i] * geluGradScalar(v)
	}
}

// expShiftGeneric writes dst[i] = exp(a[i] - m), the exponent pass of
// a stable softmax. dst may alias a.
func expShiftGeneric(dst, a []float32, m float32) {
	for i, v := range a {
		dst[i] = float32(math.Exp(float64(v - m)))
	}
}
