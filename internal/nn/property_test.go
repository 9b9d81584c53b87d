package nn

import (
	"math"
	"testing"
	"testing/quick"

	"menos/internal/tensor"
)

// Property: a bias-free Linear is a linear map: f(x+y) == f(x) + f(y)
// and f(αx) == αf(x).
func TestLinearIsLinearProperty(t *testing.T) {
	f := func(seed uint64, alphaRaw int8) bool {
		rng := tensor.NewRNG(seed)
		in, out := 1+rng.Intn(6), 1+rng.Intn(6)
		l := NewLinear(rng, in, out, false)
		alpha := float32(alphaRaw) / 16

		x := tensor.NewNormal(rng, 1, 2, in)
		y := tensor.NewNormal(rng, 1, 2, in)

		sum := tensor.New(2, in)
		if err := tensor.Add(sum, x, y); err != nil {
			return false
		}
		fSum, err := l.Forward(sum, nil)
		if err != nil {
			return false
		}
		fx, err := l.Forward(x, nil)
		if err != nil {
			return false
		}
		fy, err := l.Forward(y, nil)
		if err != nil {
			return false
		}
		want := tensor.New(2, out)
		if err := tensor.Add(want, fx, fy); err != nil {
			return false
		}
		for i := range want.Data() {
			if math.Abs(float64(fSum.Data()[i]-want.Data()[i])) > 1e-3 {
				return false
			}
		}

		scaled := x.Clone()
		scaled.Scale(alpha)
		fScaled, err := l.Forward(scaled, nil)
		if err != nil {
			return false
		}
		fxScaled := fx.Clone()
		fxScaled.Scale(alpha)
		for i := range fScaled.Data() {
			if math.Abs(float64(fScaled.Data()[i]-fxScaled.Data()[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: cross-entropy gradient rows sum to zero (softmax gradient
// identity) and the loss is non-negative, for any logits and targets.
func TestCrossEntropyGradientIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		rows, vocab := 1+rng.Intn(5), 2+rng.Intn(10)
		logits := tensor.New(rows, vocab)
		logits.FillUniform(rng, -10, 10)
		targets := make([]int, rows)
		for i := range targets {
			targets[i] = rng.Intn(vocab)
		}
		loss, dlogits, err := CrossEntropy(logits, targets)
		if err != nil {
			return false
		}
		if loss < 0 || math.IsNaN(loss) {
			return false
		}
		for r := 0; r < rows; r++ {
			var sum float64
			for c := 0; c < vocab; c++ {
				sum += float64(dlogits.At(r, c))
			}
			if math.Abs(sum) > 1e-5 {
				return false
			}
			// Target entry has the only possible negative gradient.
			if dlogits.At(r, targets[r]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: optimizers are deterministic — two identically seeded
// parameter sets driven by identical gradients stay identical.
func TestOptimizerDeterminismProperty(t *testing.T) {
	f := func(seed uint64, adam bool) bool {
		build := func() (Param, Optimizer) {
			rng := tensor.NewRNG(seed)
			p := NewParam("p", tensor.NewNormal(rng, 1, 8))
			var opt Optimizer
			if adam {
				opt = NewAdam(0.01)
			} else {
				opt = NewSGD(0.01, 0.9)
			}
			return p, opt
		}
		p1, o1 := build()
		p2, o2 := build()
		gradRNG := tensor.NewRNG(seed ^ 0xabc)
		for step := 0; step < 5; step++ {
			g := tensor.NewNormal(gradRNG, 1, 8)
			if err := p1.Grad.CopyFrom(g); err != nil {
				return false
			}
			if err := p2.Grad.CopyFrom(g); err != nil {
				return false
			}
			if o1.Step([]Param{p1}) != nil || o2.Step([]Param{p2}) != nil {
				return false
			}
		}
		for i := range p1.Value.Data() {
			if p1.Value.Data()[i] != p2.Value.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LayerNorm is invariant to input shift and positive scale
// up to its ε term. A row with mean μ and variance σ² normalizes to
// (x-μ)/sqrt(σ²+ε); the same row scaled by s normalizes to
// (x-μ)/sqrt(σ²+ε/s²). The two differ by the analytic term
// (x-μ)·(1/sqrt(σ²+ε) - 1/sqrt(σ²+ε/s²)), negligible on a
// well-conditioned row but up to ~1e-2 when σ² is within a few hundred
// ε. Each output must match that prediction to within the float32
// rounding of both forwards and of the moved input.
func TestLayerNormInvarianceProperty(t *testing.T) {
	f := func(seed uint64, shiftRaw int8, scaleRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		dim := 4 + rng.Intn(12)
		l := NewLayerNorm(dim)
		x := tensor.NewNormal(rng, 1, 2, dim)
		shift := float32(shiftRaw) / 4
		scale := 0.5 + float32(scaleRaw)/64

		y1, err := l.Forward(x, nil)
		if err != nil {
			return false
		}
		moved := x.Clone()
		for i := range moved.Data() {
			moved.Data()[i] = moved.Data()[i]*scale + shift
		}
		y2, err := l.Forward(moved, nil)
		if err != nil {
			return false
		}
		s2 := float64(scale) * float64(scale)
		for r := 0; r < 2; r++ {
			xr := x.Data()[r*dim : (r+1)*dim]
			mr := moved.Data()[r*dim : (r+1)*dim]
			mu1, var1, max1 := rowMoments(xr)
			mu2, var2, max2 := rowMoments(mr)
			inv1 := 1 / math.Sqrt(var1+normEps)
			inv2 := 1 / math.Sqrt(var2+normEps)
			// 16 float32 ulps of every magnitude the two forwards and
			// the moved input round: outputs (|y| < 4 at dim < 16),
			// means, inputs and the shift.
			allow := 0x1p-20 * (1 + inv1*(math.Abs(mu1)+max1) +
				inv2*(math.Abs(mu2)+max2+math.Abs(float64(shift))))
			for c, v := range xr {
				epsTerm := (float64(v) - mu1) * (inv1 - 1/math.Sqrt(var1+normEps/s2))
				got := float64(y1.Data()[r*dim+c]) - float64(y2.Data()[r*dim+c])
				if math.Abs(got-epsTerm) > allow {
					return false
				}
			}
		}
		return true
	}
	// Rows of dim 4 with variance 0.001-0.02, where the ε term moves
	// outputs by 1e-3 to 7e-3.
	for _, c := range []struct {
		seed  uint64
		shift int8
		scale uint8
	}{{0x5ff14460ef51586e, -36, 0xe7}, {0x7d528b32eb68a3c6, 98, 0x4c}} {
		if !f(c.seed, c.shift, c.scale) {
			t.Errorf("ill-conditioned case %#x, %d, %#x", c.seed, c.shift, c.scale)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// rowMoments returns the float64 mean and variance LayerNorm computes
// for a row, and the row's largest magnitude.
func rowMoments(xs []float32) (mean, variance, maxAbs float64) {
	for _, v := range xs {
		mean += float64(v)
		maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		d := float64(v) - mean
		variance += d * d
	}
	return mean, variance / float64(len(xs)), maxAbs
}
