package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// procStart approximates child start: package variables initialize before
// main runs, so setup_s includes runtime start-up but not the exec itself.
var procStart = time.Now()

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM from /proc/self/status (0 where procfs is absent).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// usage is a point-in-time reading of everything a timed window is the
// difference of.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause uint64
	gcCount uint32
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall: time.Now(), cpu: cpuTime(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcPause: ms.PauseTotalNs, gcCount: ms.NumGC,
	}
}

// window accumulates the allocator's and collector's counters over one or
// more timed intervals (timings are medians over samples, not window totals).
type window struct {
	mallocs, bytes   uint64
	gcPause, gcCount uint64
}

func (w *window) add(from, to usage) {
	w.mallocs += to.mallocs - from.mallocs
	w.bytes += to.bytes - from.bytes
	w.gcPause += to.gcPause - from.gcPause
	w.gcCount += uint64(to.gcCount - from.gcCount)
}
