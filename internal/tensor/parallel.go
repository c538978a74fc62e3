package tensor

import (
	"sync/atomic"

	"fedmigr/internal/sched"
)

// The tensor kernels parallelize through an ambient sched.Pool so the nn
// layers and every caller above them need no plumbing changes: the
// trainer (or a CLI) installs its pool once and all matmul / im2col /
// pooling kernels below the size threshold stay serial while large ones
// split across workers.
//
// Determinism: every parallel kernel splits its *output* into disjoint
// contiguous ranges and keeps the per-element accumulation order of the
// serial loop, so the installed pool changes wall-clock only — results
// are bit-for-bit identical for any worker count (see the parity tests in
// parallel_test.go and DESIGN.md §5).

var ambientPool atomic.Pointer[sched.Pool]

// InstallPool makes p the ambient pool for subsequent kernel calls and
// returns the previously installed pool (nil for none) so callers can
// restore it. A nil p reverts to serial execution.
func InstallPool(p *sched.Pool) *sched.Pool {
	return ambientPool.Swap(p)
}

// Pool returns the ambient pool (nil when kernels run serially).
func Pool() *sched.Pool { return ambientPool.Load() }

// minParallelWork is the approximate flop count below which splitting a
// kernel costs more than it saves; such calls take the serial path.
const minParallelWork = 1 << 15

// serial reports whether a kernel of the given estimated work runs on the
// calling goroutine. Kernels test it before building the closure parFor
// needs: the closure escapes into the pool, so creating it only on the
// parallel branch keeps the serial path allocation-free.
func serial(work int) bool {
	return ambientPool.Load() == nil || work < minParallelWork
}

// parFor runs fn over [0, n) through the ambient pool when the kernel's
// estimated work clears the threshold, serially otherwise.
func parFor(n int, work int, fn func(lo, hi int)) {
	if serial(work) {
		fn(0, n)
		return
	}
	grain := n * minParallelWork / (work + 1)
	if grain < 1 {
		grain = 1
	}
	ambientPool.Load().ParallelFor(n, grain, fn) // a nil pool runs fn(0, n)
}

// GetScratch returns a zero-filled tensor backed by the shared sched
// arena. Pair with PutScratch when the tensor's data is dead; a scratch
// tensor that escapes (is returned or cached) may simply never be Put.
func GetScratch(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in GetScratch")
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: sched.GetBuf(n)}
}

// GetScratchUninit is GetScratch without the zero fill: the tensor's
// contents are unspecified until the caller has written every element.
func GetScratchUninit(n int) *Tensor {
	return &Tensor{shape: []int{n}, data: sched.GetBufUninit(n)}
}

// PutScratch recycles a tensor obtained from GetScratch or
// GetScratchUninit. The tensor (and any view sharing its storage) must not
// be used afterwards.
func PutScratch(t *Tensor) {
	if t != nil {
		sched.PutBuf(t.data)
	}
}
