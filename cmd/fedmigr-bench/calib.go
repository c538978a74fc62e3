package main

import (
	"encoding/binary"
	"sync"
	"syscall"
	"time"
)

// Calibration. The shared boxes this benchmark runs on change speed by up to
// 2× — for minutes on end, for a second or two, and from one millisecond to
// the next — through host contention that does not show up as steal: wall
// and CPU time move together. A ten-second window cannot average the slow
// changes away, so every timing of a pass is scaled by how fast the box was
// while the pass ran. After every sample (round hook, session) the driver
// times a few fixed bursts of work of its own, on W goroutines at once as the
// workloads load W workers, and the pass reports timing × ref ÷ mean burst:
// milliseconds on a box that runs the burst in ref. The burst is the driver's
// own code, so no change to the program can move it. Counts and bytes are
// never scaled.
//
// What the burst does matters. The workloads allocate 13–730 MB a round, so
// they live on fresh pages (net_wire_heavy: 8 000 minor faults and 14 GC
// cycles a round, a third of its CPU in the kernel), and that is where much of
// the host's contention lands: over five-minute logs in which a net session's
// time wandered by 18–37 %, an L2-resident dot product moved by under 10 % and
// an 8 MB copy not at all, while mapping, filling and unmapping a model-sized
// buffer followed the sessions and took a third to two thirds off their
// spread. On a quiet box it is the other way round: the dot product is
// steady and the mapping wanders by ±10 % for reasons the workloads do not
// feel. A burst is therefore half one and half the other, as the workloads
// are part arithmetic and part memory management: in four ten-seed sets of
// each workload taken with a mapping-only burst, quiet and noisy, applying
// half the correction had the smallest worst spread (12 %, against 17 % for
// all of it and 16 % for none). The burst maps its own pages rather than
// allocating from the Go heap: a burst on the heap tracks as well, but costs
// up to 3× more or less with the state the program left the heap in, and a
// yardstick must not.
//
// What is done with the bursts matters as much. One burst sees one millisecond
// of a box whose speed changes by the millisecond: single bursts spread 15–40 %
// where the sessions they sit between spread 5 %. The scale is therefore the
// mean over all the bursts of a pass (hundreds), the same number after every
// sample, so that they see the box's states in the proportion the samples do.

const (
	// calLen is the float64s per operand of the dot product: 256 KB per
	// goroutine, L2-resident. calPasses of it take as long as the mapping.
	calLen    = 16384
	calPasses = 40
	// calBytes is the size of the mapped buffer: 0.83 MB, a net_wire_heavy
	// model frame as the runtime rounds it.
	calBytes = 102 * 8192
	// calClip caps a burst at this multiple of the median burst: one the host
	// descheduled for 50 ms says nothing about speed, and the samples,
	// reported as medians, shrug the same event off.
	calClip = 4
	// calLog is the bursts a calibrator can record; the log is allocated up
	// front, so measuring the box allocates nothing.
	calLog = 1 << 15
)

// calRef is the W-goroutine burst's duration on the reference box (2 vCPUs,
// go1.24) in its fast state. It only fixes the scale of the reported timings.
const calRef = 1000 * time.Microsecond

// calibrator owns the burst goroutines. They are started once and woken per
// burst.
type calibrator struct {
	wake   []chan struct{}
	done   chan float64
	stop   sync.WaitGroup
	bursts []float64 // seconds, in the order taken
}

// newCalibrator starts w burst goroutines.
func newCalibrator(w int) *calibrator {
	c := &calibrator{done: make(chan float64), bursts: make([]float64, 0, calLog)}
	for g := 0; g < w; g++ {
		a, b := make([]float64, calLen), make([]float64, calLen)
		for i := range a {
			a[i], b[i] = float64(i%7)+0.5, float64(i%5)+0.25
		}
		wake := make(chan struct{})
		c.wake = append(c.wake, wake)
		c.stop.Add(1)
		go func() {
			defer c.stop.Done()
			for range wake {
				c.done <- burst(a, b)
			}
		}()
	}
	return c
}

// burst is one goroutine's share of a burst: calPasses dot products, then one
// fresh anonymous buffer mapped, every word of it written, and unmapped. A box
// that cannot map memory fails the benchmark.
func burst(a, b []float64) float64 {
	s := 0.0
	for pass := 0; pass < calPasses; pass++ {
		for i := range a {
			s += a[i] * b[i]
		}
	}
	buf, err := syscall.Mmap(-1, 0, calBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("fedmigr-bench: calibration burst: " + err.Error())
	}
	for i := 0; i < calBytes; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], uint64(i))
	}
	s += float64(buf[8])
	if err := syscall.Munmap(buf); err != nil {
		panic("fedmigr-bench: calibration burst: " + err.Error())
	}
	return s
}

// Close stops the burst goroutines and waits for them.
func (c *calibrator) Close() {
	for _, w := range c.wake {
		close(w)
	}
	c.stop.Wait()
}

// sample times n bursts — every goroutine at once, until the last one
// finishes — and records them. One more burst runs first, unrecorded: coming
// cold out of a round it takes half as long again, so that a burst's cost
// would depend on how many follow it.
func (c *calibrator) sample(n int) {
	if n > cap(c.bursts)-len(c.bursts) {
		n = cap(c.bursts) - len(c.bursts)
	}
	for i := 0; i <= n; i++ {
		start := time.Now()
		for _, w := range c.wake {
			w <- struct{}{}
		}
		for range c.wake {
			<-c.done
		}
		if i > 0 {
			c.bursts = append(c.bursts, time.Since(start).Seconds())
		}
	}
}

// mark is the number of bursts recorded so far: speed's from argument.
func (c *calibrator) mark() int { return len(c.bursts) }

// speed is how fast the box was, relative to the reference, while the bursts
// since mark from were taken: calRef ÷ their mean, so 0.5 means everything took
// twice as long. Without bursts it is 1.
func (c *calibrator) speed(from int) float64 {
	b := c.bursts[from:]
	if len(b) == 0 {
		return 1
	}
	limit := calClip * median(b)
	sum := 0.0
	for _, v := range b {
		sum += min(v, limit)
	}
	return calRef.Seconds() * float64(len(b)) / sum
}
