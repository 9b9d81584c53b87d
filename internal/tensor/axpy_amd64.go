package tensor

// hasAVX2 is set once at package init: AVX2 support on the CPU and YMM
// state saving by the OS. Without both, axpy4 runs the generic kernel.
// Only tests change it, to pin the fallback on amd64.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM registers.
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// axpy4 is the row update described in axpy.go.
func axpy4(d, b []float32, a0, a1, a2, a3 float32) {
	n := len(d)
	if !hasAVX2 || n == 0 {
		axpy4Generic(d, b, a0, a1, a2, a3)
		return
	}
	_ = b[4*n-1] // the assembly reads four rows of b unchecked
	axpy4AVX2(&d[0], &b[0], n, a0, a1, a2, a3)
}

// axpy4AVX2 is axpy4 over n columns, eight per VMULPS/VADDPS pair and
// a scalar tail. It never uses FMA.
//
//go:noescape
func axpy4AVX2(d, b *float32, n int, a0, a1, a2, a3 float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
