// Package sched is the deterministic parallel execution runtime of the
// reproduction: a worker pool that parallelizes both the federated
// trainer's per-client work and the tensor kernels underneath it, plus a
// size-classed buffer arena that recycles scratch memory across clients.
//
// Determinism contract (DESIGN.md §5): the pool never decides *what* is
// computed or *in which order* results are combined — callers split work
// into jobs that write disjoint outputs and reduce those outputs on the
// calling goroutine in a fixed (index) order. Under that contract a run
// with N workers is bit-for-bit identical to a serial run, which the
// parity tests in internal/tensor and the end-to-end workers=1-vs-8 test
// in the root package verify.
//
// Deadlock freedom: dispatch never blocks. The pool keeps workers−1
// persistent helper goroutines parked on an unbuffered channel; a parallel
// region offers itself to parked helpers with a non-blocking send and the
// caller always participates, so nested parallel regions (a parallel
// client epoch calling parallel matmuls) degrade to inline execution
// instead of waiting on a saturated queue, and total concurrency stays
// bounded by Workers.
//
// Dispatch is alloc-free in steady state: per-region bookkeeping (claim
// counter, wait group, panic box) lives in a pooled region struct handed
// to helpers by pointer, so no per-dispatch closures or channels are
// allocated — asserted by TestDispatchAllocFree against the regression an
// early benchmark recorded (7–16 allocs/op at workers ≥ 2).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fedmigr/internal/telemetry"
)

// Pool is a bounded-concurrency executor. The nil Pool and the 1-worker
// Pool are valid and run everything serially on the caller, so call sites
// need no branching. Pools are safe for concurrent use. Helper goroutines
// start lazily at the first parallel region; Close releases them (a
// closed pool keeps working, inline on the caller).
type Pool struct {
	workers int
	work    chan *region  // offered regions; received only by parked helpers
	quit    chan struct{} // closed by Close to retire helpers
	begin   sync.Once
	closed  atomic.Bool

	// Telemetry (nil and free until SetTelemetry installs instruments).
	mJobs     *telemetry.Counter
	mInline   *telemetry.Counter
	mRegions  *telemetry.Counter
	gWorkers  *telemetry.Gauge
	gInflight *telemetry.Gauge
	hJob      *telemetry.Histogram
	hRegion   *telemetry.Histogram
	tel       *telemetry.Telemetry
	inflight  atomic.Int64
}

// New returns a pool running at most workers jobs concurrently (the
// caller's goroutine counts as one). workers <= 0 selects
// runtime.NumCPU(), the -workers CLI default.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers, work: make(chan *region), quit: make(chan struct{})}
}

// Workers returns the pool's concurrency bound (1 for the nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close retires the helper goroutines. It is idempotent and safe
// concurrently with running regions: helpers finish the region they hold,
// and later regions run inline on their callers with identical results.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
}

// SetTelemetry installs the sched_* instruments: job/region counters, the
// sched_inflight depth gauge, and job/region latency histograms whose
// sums double as busy-seconds for utilization (busy ÷ elapsed·workers).
// A nil tel detaches them.
func (p *Pool) SetTelemetry(tel *telemetry.Telemetry) {
	if p == nil {
		return
	}
	p.tel = tel
	if tel == nil {
		p.mJobs, p.mInline, p.mRegions = nil, nil, nil
		p.gWorkers, p.gInflight, p.hJob, p.hRegion = nil, nil, nil, nil
		return
	}
	p.mJobs = tel.Counter("sched_jobs_total")
	p.mInline = tel.Counter("sched_inline_jobs_total")
	p.mRegions = tel.Counter("sched_regions_total")
	p.gWorkers = tel.Gauge("sched_workers")
	p.gInflight = tel.Gauge("sched_inflight")
	p.hJob = tel.Histogram("sched_job_seconds", telemetry.ExpBuckets(1e-6, 4, 12))
	p.hRegion = tel.Histogram("sched_region_seconds", telemetry.ExpBuckets(1e-6, 4, 12))
	p.gWorkers.Set(float64(p.workers))
}

// panicBox captures the first panic raised inside a helper goroutine so
// the region can re-raise it on the calling goroutine after all helpers
// drain (a bare goroutine panic would kill the process before tests could
// observe it). Unlike sync.Once it resets with the pooled region.
type panicBox struct {
	mu  sync.Mutex
	set bool
	val any
}

func (b *panicBox) capture() {
	if r := recover(); r != nil {
		b.mu.Lock()
		if !b.set {
			b.set, b.val = true, r
		}
		b.mu.Unlock()
	}
}

// region is the recycled per-dispatch state: the claim counter helpers
// pull work units from, the fn being run, and the completion/panic
// bookkeeping. ForEach regions set size == 0 and claim single indices;
// ParallelFor regions claim contiguous chunks of size indices.
type region struct {
	pool    *Pool
	next    atomic.Int64
	njobs   int // claimable units
	n, size int // ParallelFor extent and chunk width (size == 0 → ForEach)
	fnIdx   func(i int)
	fnRange func(lo, hi int)
	wg      sync.WaitGroup
	box     panicBox
}

var regionPool = sync.Pool{New: func() any { return new(region) }}

// run claims and executes work units until the region is exhausted.
func (r *region) run() {
	defer r.box.capture()
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.njobs {
			return
		}
		if r.size == 0 {
			r.pool.runJob(i, r.fnIdx)
		} else {
			lo := i * r.size
			hi := lo + r.size
			if hi > r.n {
				hi = r.n
			}
			r.fnRange(lo, hi)
		}
	}
}

func (r *region) reset() {
	r.pool, r.fnIdx, r.fnRange = nil, nil, nil
	r.box.set, r.box.val = false, nil
}

// worker is one persistent helper: it parks on the work channel, runs
// each region it receives to exhaustion, and signals the region done.
func (p *Pool) worker() {
	for {
		select {
		case r := <-p.work:
			r.run()
			r.wg.Done()
		case <-p.quit:
			return
		}
	}
}

func (p *Pool) startWorkers() {
	for i := 0; i < p.workers-1; i++ {
		go p.worker()
	}
}

// dispatch offers the region to up to max parked helpers without
// blocking; the caller runs the remainder itself. Returns the number of
// helpers engaged.
func (p *Pool) dispatch(r *region, max int) int {
	helpers := 0
	for h := 0; h < max; h++ {
		r.wg.Add(1)
		select {
		case p.work <- r:
			helpers++
		default:
			r.wg.Done()
			p.mInline.Inc() // saturated (or closed) pool: caller drains inline
			return helpers
		}
	}
	return helpers
}

// runRegion executes a prepared region: offer to helpers, work alongside
// them, wait, recycle, and re-raise the first captured panic.
func (p *Pool) runRegion(r *region, label string, maxHelpers int) {
	p.begin.Do(p.startWorkers)
	var sp telemetry.Span
	traced := label != "" && p.tel != nil
	if traced {
		sp = p.tel.Begin("sched_region", "region", label, "jobs", r.njobs)
	}
	start := telemetry.Now()
	helpers := p.dispatch(r, maxHelpers)
	r.run()
	r.wg.Wait()
	p.mRegions.Inc()
	p.hRegion.Observe(telemetry.Since(start).Seconds())
	if traced {
		sp.End("helpers", helpers)
	}
	panicked, val := r.box.set, r.box.val
	r.reset()
	regionPool.Put(r)
	if panicked {
		panic(val)
	}
}

// ForEach runs fn(0) … fn(n−1), distributing indices over up to Workers
// goroutines (the caller included). Jobs are claimed dynamically so
// heterogeneous per-index costs balance, which is safe because callers
// must write only index-private state; any cross-index reduction happens
// after ForEach returns, in whatever fixed order the caller chooses.
// label names the telemetry span ("" suppresses the span but keeps the
// counters). A panic in any job is re-raised on the caller.
func (p *Pool) ForEach(label string, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := regionPool.Get().(*region)
	r.pool, r.njobs, r.n, r.size, r.fnIdx = p, n, n, 0, fn
	r.next.Store(0)
	max := p.workers - 1
	if n-1 < max {
		max = n - 1
	}
	p.runRegion(r, label, max)
}

// runJob executes one claimed index with per-job accounting.
func (p *Pool) runJob(i int, fn func(int)) {
	if p.hJob == nil {
		fn(i)
		return
	}
	p.gInflight.Set(float64(p.inflight.Add(1)))
	t0 := telemetry.Now()
	defer func() {
		p.hJob.Observe(telemetry.Since(t0).Seconds())
		p.gInflight.Set(float64(p.inflight.Add(-1)))
		p.mJobs.Inc()
	}()
	fn(i)
}

// ParallelFor splits the index range [0, n) into at most Workers
// contiguous chunks of at least grain indices and runs fn(lo, hi) on each
// — the shape tensor kernels need, where each chunk writes a disjoint
// slice of the output and per-element arithmetic order is unchanged, so
// the result is bit-identical to fn(0, n). Chunks beyond what parked
// helpers can absorb (pool saturated by an enclosing region) run inline
// on the caller. A panic in any chunk is re-raised on the caller.
func (p *Pool) ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if p == nil || p.workers <= 1 || n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > p.workers {
		chunks = p.workers
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	njobs := (n + size - 1) / size // rounding can leave trailing chunks empty
	r := regionPool.Get().(*region)
	r.pool, r.njobs, r.n, r.size, r.fnRange = p, njobs, n, size, fn
	r.next.Store(0)
	p.runRegion(r, "", njobs-1)
}
