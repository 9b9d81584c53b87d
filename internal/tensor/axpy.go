package tensor

// Row-update primitives under every matmul variant. axpy4 computes,
// for every column j of one output row d of length n,
//
//	d[j] = (((d[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//
// where b0..b3 are four consecutive length-n rows of one row-major
// matrix, passed as the single slice b = b0‖b1‖b2‖b3, and every
// product is rounded to float32 before its add. Vectorising across j
// (axpy_amd64.s) leaves each element's add sequence exactly this one,
// so the SIMD and generic paths define the same bits.

// axpy4Generic is the portable row kernel. The float32 conversions
// force each product to round before the add: without them the Go
// spec lets a compiler fuse the pair into one FMA, which arm64 does.
func axpy4Generic(d, b []float32, a0, a1, a2, a3 float32) {
	n := len(d)
	b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
	for j, v := range d {
		v += float32(a0 * b0[j])
		v += float32(a1 * b1[j])
		v += float32(a2 * b2[j])
		v += float32(a3 * b3[j])
		d[j] = v
	}
}

// axpy1 computes d[j] += a·b[j], the one-row tail of a reduction whose
// length is not a multiple of four.
func axpy1(d, b []float32, a float32) {
	b = b[:len(d)]
	for j := range d {
		d[j] += float32(a * b[j])
	}
}
