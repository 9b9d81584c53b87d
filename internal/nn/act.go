package nn

import (
	"fmt"
	"math"

	"menos/internal/tensor"
)

// actGrain is the ParallelFor grain for activation kernels: tanh/exp
// make them compute-bound, so they fan out earlier than memory-bound
// elementwise ops.
const actGrain = 1 << 13

// ActCache retains the input of an elementwise activation.
type ActCache struct {
	X *tensor.Tensor
}

// Bytes reports retained activation size.
func (c *ActCache) Bytes() int64 {
	if c == nil || c.X == nil {
		return 0
	}
	return c.X.Bytes()
}

// GELU applies the Gaussian Error Linear Unit (tanh approximation, as
// used by OPT/GPT-style models), elementwise via tensor.GELU.
func GELU(x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	return GELUScratch(nil, x, cache)
}

// GELUScratch is GELU drawing its output from the given buffer arena
// (nil degrades to allocation).
func GELUScratch(sc *tensor.Scratch, x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	out := sc.Get(x.Shape()...)
	xd, od := x.Data(), out.Data()
	if tensor.Parallelism() <= 1 || len(xd) <= actGrain {
		tensor.GELU(od, xd)
	} else {
		tensor.ParallelFor(len(xd), actGrain, func(lo, hi int) {
			tensor.GELU(od[lo:hi], xd[lo:hi])
		})
	}
	if cache != nil {
		cache.X = x
	}
	return out
}

// GELUBackward computes dx = dy * gelu'(x).
func GELUBackward(cache *ActCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	return GELUBackwardScratch(nil, cache, dy)
}

// GELUBackwardScratch is GELUBackward drawing dx from the given buffer
// arena (nil degrades to allocation).
func GELUBackwardScratch(sc *tensor.Scratch, cache *ActCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil || cache.X == nil {
		return nil, fmt.Errorf("gelu backward: no cached activations")
	}
	if cache.X.Len() != dy.Len() {
		return nil, fmt.Errorf("gelu backward: dy %v for x %v: %w",
			dy.Shape(), cache.X.Shape(), tensor.ErrShape)
	}
	dx := sc.Get(cache.X.Shape()...)
	xd, dyd, dxd := cache.X.Data(), dy.Data(), dx.Data()
	if tensor.Parallelism() <= 1 || len(xd) <= actGrain {
		tensor.GELUGrad(dxd, xd, dyd)
	} else {
		tensor.ParallelFor(len(xd), actGrain, func(lo, hi int) {
			tensor.GELUGrad(dxd[lo:hi], xd[lo:hi], dyd[lo:hi])
		})
	}
	return dx, nil
}

// SiLU applies x * sigmoid(x), the activation used by Llama's SwiGLU
// feed-forward network.
func SiLU(x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	return SiLUScratch(nil, x, cache)
}

// SiLUScratch is SiLU drawing its output from the given buffer arena
// (nil degrades to allocation).
func SiLUScratch(sc *tensor.Scratch, x *tensor.Tensor, cache *ActCache) *tensor.Tensor {
	out := sc.Get(x.Shape()...)
	xd, od := x.Data(), out.Data()
	if tensor.Parallelism() <= 1 || len(xd) <= actGrain {
		for i, v := range xd {
			od[i] = siluScalar(v)
		}
	} else {
		tensor.ParallelFor(len(xd), actGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				od[i] = siluScalar(xd[i])
			}
		})
	}
	if cache != nil {
		cache.X = x
	}
	return out
}

// SiLUBackward computes dx = dy * silu'(x).
func SiLUBackward(cache *ActCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	return SiLUBackwardScratch(nil, cache, dy)
}

// SiLUBackwardScratch is SiLUBackward drawing dx from the given buffer
// arena (nil degrades to allocation).
func SiLUBackwardScratch(sc *tensor.Scratch, cache *ActCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil || cache.X == nil {
		return nil, fmt.Errorf("silu backward: no cached activations")
	}
	if cache.X.Len() != dy.Len() {
		return nil, fmt.Errorf("silu backward: dy %v for x %v: %w",
			dy.Shape(), cache.X.Shape(), tensor.ErrShape)
	}
	dx := sc.Get(cache.X.Shape()...)
	xd, dyd, dxd := cache.X.Data(), dy.Data(), dx.Data()
	if tensor.Parallelism() <= 1 || len(xd) <= actGrain {
		for i, v := range xd {
			dxd[i] = dyd[i] * siluGradScalar(v)
		}
	} else {
		tensor.ParallelFor(len(xd), actGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dxd[i] = dyd[i] * siluGradScalar(xd[i])
			}
		})
	}
	return dx, nil
}

func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}

func siluScalar(v float32) float32 {
	x := float64(v)
	return float32(x * sigmoid(x))
}

func siluGradScalar(v float32) float32 {
	x := float64(v)
	s := sigmoid(x)
	return float32(s * (1 + x*(1-s)))
}
