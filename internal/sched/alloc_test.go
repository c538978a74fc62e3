package sched

import (
	"sync/atomic"
	"testing"
)

// TestDispatchAllocFree pins the fix for the per-dispatch allocations an
// early scheduler benchmark exposed (7–16 allocs/op for ForEach and
// ParallelFor at workers >= 2): steady-state dispatch must allocate
// nothing, because the per-region claim counter, wait group, and panic
// box are recycled through a sync.Pool and helpers receive the region by
// pointer instead of a fresh closure.
func TestDispatchAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("testing.Benchmark run skipped in -short mode")
	}
	var sink atomic.Int64
	fnIdx := func(i int) { sink.Add(int64(i)) }
	fnRange := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	for _, workers := range []int{2, 8} {
		p := New(workers)
		// Warm the region pool and start the persistent helpers outside
		// the measured window.
		for i := 0; i < 16; i++ {
			p.ForEach("", 64, fnIdx)
			p.ParallelFor(1<<12, 1<<8, fnRange)
		}
		forEach := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ForEach("", 64, fnIdx)
			}
		})
		if a := forEach.AllocsPerOp(); a != 0 {
			t.Errorf("workers=%d: ForEach allocates %d allocs/op, want 0", workers, a)
		}
		parFor := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ParallelFor(1<<12, 1<<8, fnRange)
			}
		})
		if a := parFor.AllocsPerOp(); a != 0 {
			t.Errorf("workers=%d: ParallelFor allocates %d allocs/op, want 0", workers, a)
		}
		p.Close()
	}
}

// TestCloseDegradesToInline: a closed pool must keep producing correct
// results (inline on the caller) and Close must be idempotent.
func TestCloseDegradesToInline(t *testing.T) {
	p := New(4)
	var total atomic.Int64
	p.ForEach("warm", 8, func(i int) { total.Add(1) })
	p.Close()
	p.Close()
	p.ForEach("after_close", 8, func(i int) { total.Add(1) })
	p.ParallelFor(100, 10, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 8+8+100 {
		t.Fatalf("closed pool processed %d of %d units", total.Load(), 8+8+100)
	}
}
