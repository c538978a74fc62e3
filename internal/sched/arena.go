package sched

import (
	"math/bits"
	"sync"
)

// Arena is a size-classed recycling pool for float64 scratch buffers: the
// model-sized vectors aggregation folds through every round (agg, core's
// reduction tree). The training step does not use it — layers own their
// buffers (DESIGN.md §5). Buffers are grouped in power-of-two classes
// backed by sync.Pool, so concurrent users share one arena without
// locking beyond sync.Pool's own sharding.
//
// Get returns zeroed memory, so a recycled buffer is bit-equivalent to a
// fresh allocation for callers that accumulate into it.
type Arena struct {
	classes [maxClass + 1]sync.Pool
}

// maxClass caps pooled buffers at 2^26 floats (512 MB); anything larger
// falls through to the garbage collector.
const maxClass = 26

// sizeClass returns the smallest class whose capacity holds n, or -1 when
// n is too large to pool.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxClass {
		return -1
	}
	return c
}

// Get returns a zeroed buffer of length n.
func (a *Arena) Get(n int) []float64 {
	buf, recycled := a.get(n)
	if recycled {
		clear(buf)
	}
	return buf
}

// GetUninit returns a buffer of length n whose contents are unspecified
// (a recycled buffer keeps its old values), for a caller that writes
// every element before it reads any: it saves Get's clearing pass.
func (a *Arena) GetUninit(n int) []float64 {
	buf, _ := a.get(n)
	return buf
}

// get returns a length-n buffer and whether it was recycled (a fresh one
// is zeroed by make).
func (a *Arena) get(n int) ([]float64, bool) {
	if n < 0 {
		panic("sched: negative arena request")
	}
	c := sizeClass(n)
	if c < 0 {
		return make([]float64, n), false
	}
	if v := a.classes[c].Get(); v != nil {
		return v.([]float64)[:n], true
	}
	return make([]float64, n, 1<<c), false
}

// Put recycles a buffer obtained from Get. Buffers whose capacity is not
// an exact class size (or that are too large) are dropped for the GC.
// The caller must not retain the slice after Put.
func (a *Arena) Put(buf []float64) {
	c := sizeClass(cap(buf))
	if c < 0 || cap(buf) != 1<<c {
		return
	}
	a.classes[c].Put(buf[:cap(buf)]) //nolint:staticcheck // slices are pointer-shaped since go1.21
}

// defaultArena backs the package-level helpers shared by the tensor
// kernels and the trainer's batch buffers.
var defaultArena Arena

// GetBuf returns a zeroed length-n buffer from the shared arena.
func GetBuf(n int) []float64 { return defaultArena.Get(n) }

// GetBufUninit returns a length-n buffer with unspecified contents from
// the shared arena (see Arena.GetUninit).
func GetBufUninit(n int) []float64 { return defaultArena.GetUninit(n) }

// PutBuf recycles a buffer obtained from GetBuf or GetBufUninit.
func PutBuf(buf []float64) { defaultArena.Put(buf) }

// IntArena is the []int counterpart of Arena, recycling index scratch —
// pooling argmax maps, permutation buffers — with the same power-of-two
// size classes and the same zeroed-memory contract.
type IntArena struct {
	classes [maxClass + 1]sync.Pool
}

// Get returns a zeroed buffer of length n.
func (a *IntArena) Get(n int) []int {
	if n < 0 {
		panic("sched: negative arena request")
	}
	c := sizeClass(n)
	if c < 0 {
		return make([]int, n)
	}
	if v := a.classes[c].Get(); v != nil {
		buf := v.([]int)[:n]
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	return make([]int, n, 1<<c)
}

// Put recycles a buffer obtained from Get; see Arena.Put.
func (a *IntArena) Put(buf []int) {
	c := sizeClass(cap(buf))
	if c < 0 || cap(buf) != 1<<c {
		return
	}
	a.classes[c].Put(buf[:cap(buf)]) //nolint:staticcheck // slices are pointer-shaped since go1.21
}

// defaultIntArena backs the package-level int-buffer helpers.
var defaultIntArena IntArena

// GetIntBuf returns a zeroed length-n int buffer from the shared arena.
func GetIntBuf(n int) []int { return defaultIntArena.Get(n) }

// PutIntBuf recycles a buffer obtained from GetIntBuf.
func PutIntBuf(buf []int) { defaultIntArena.Put(buf) }
