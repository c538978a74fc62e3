package tensor

func init() {
	if hasAVX() {
		gemmBody = gemmAVX
	}
}

// hasAVX reports whether the CPU implements AVX and the operating system
// saves the YMM registers across context switches: CPUID leaf 1 sets
// OSXSAVE and AVX, and XCR0 enables the SSE and AVX state components.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// gemmAVX is gemmBody in AVX (gemm_amd64.s): strips of eight columns, each
// over passes of at most 64 terms, each pass over the rows four at a time,
// a 4×8 tile of C in eight YMM accumulators, VMULPD then VADDPD per term,
// never a fused multiply-add. For the zero skip it masks a skipped term's
// product to +0, or, when the pass's B panel holds no Inf or NaN, adds it
// unmasked: either way the term adds ±0 to an accumulator that is never −0
// and changes no bit. Transposed B and a narrow last strip are first copied
// into a panel in its own stack frame, 64 terms by 8 columns.
//
//go:noescape
func gemmAVX(c, a []float64, ai, ap int, b []float64, bp, bj, rows, k, n int, skip bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
