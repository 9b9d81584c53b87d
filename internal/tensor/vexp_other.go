//go:build !amd64

package tensor

func gelu(dst, x []float32) { geluGeneric(dst, x) }

func geluGrad(dx, x, dy []float32) { geluGradGeneric(dx, x, dy) }

func expShift(dst, a []float32, m float32) { expShiftGeneric(dst, a, m) }
