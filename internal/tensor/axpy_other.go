//go:build !amd64

package tensor

// axpy4 is the row update described in axpy.go.
func axpy4(d, b []float32, a0, a1, a2, a3 float32) {
	axpy4Generic(d, b, a0, a1, a2, a3)
}
