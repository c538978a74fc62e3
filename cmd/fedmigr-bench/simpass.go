package main

import (
	"fmt"
	"math"
	"time"

	"fedmigr"
	"fedmigr/internal/core"
	"fedmigr/internal/nn"
	"fedmigr/internal/telemetry"
)

// passConfig is everything that varies between passes of one workload. The
// seed is the only thing that varies inputs.
type passConfig struct {
	seed    int64
	workers int
	scale   float64 // -seconds / runSeconds
	trace   bool
	pass    int
	cal     *calibrator
	spans   *spanStore // traced passes record here
}

// setupRepeats is how many times an untraced pass sets the workload up; the
// reported setup_s is the median, so one cold start does not decide it.
const setupRepeats = 5

// throughputSegments is how many equal slices of the timed window
// samples_per_s is the median over.
const throughputSegments = 10

// simRounds returns the workload's scaled warm-up and timed round counts.
func (s *simSpec) simRounds(scale float64) (warm, timed int) {
	return scaleRounds(s.warm, scale, 1), scaleRounds(s.timed, scale, 2)
}

// buildSim generates the workload's Options from the seed and assembles the
// simulation. The program sees nothing else of the benchmark.
func buildSim(s *simSpec, seed int64, workers, rounds int, tel *telemetry.Telemetry) (*fedmigr.Simulation, error) {
	o := s.opts
	o.Seed = seed
	o.Workers = workers
	o.Epochs = rounds * o.AggEvery
	o.Telemetry = tel
	return fedmigr.New(o)
}

// simRun is one simulation's round-by-round record, filled by the round
// hook. Index i is the i-th evaluation record (1-based round i+1).
type simRun struct {
	sim    *fedmigr.Simulation
	cal    *calibrator
	bursts int // calibration bursts per hook
	// in and out read the clocks and counters at the hook's entry and exit,
	// so a round runs from the previous hook's exit to this hook's entry and
	// the hook's own work (hashing, calibration and its garbage) stays
	// outside every sample. out carries one leading entry for the run's start.
	in, out []usage
	metrics []core.RoundMetrics
	hashAt  map[int]string // rounds whose global model to digest
	onRound func(round int)
	res     *fedmigr.Result
}

// run drives the simulation to completion. The trainer's hook fires after
// each round's evaluation and before its aggregation, so hook to hook is one
// full global round.
func (r *simRun) run() {
	r.sim.Trainer.SetRoundHook(func(m core.RoundMetrics, g *nn.Sequential) {
		r.in = append(r.in, readUsage())
		r.metrics = append(r.metrics, m)
		round := len(r.in)
		if _, ok := r.hashAt[round]; ok {
			r.hashAt[round] = modelHash(g)
		}
		if r.onRound != nil {
			r.onRound(round)
		}
		r.cal.sample(r.bursts)
		r.out = append(r.out, readUsage())
	})
	// Round 1 runs from here; give it a predecessor reading.
	r.cal.sample(r.bursts)
	r.out = append(r.out, readUsage())
	r.res = r.sim.Run()
}

// hookTime is the time spent inside the first n hooks.
func (r *simRun) hookTime(n int) time.Duration {
	var d time.Duration
	for i := 0; i < n; i++ {
		d += r.out[i+1].wall.Sub(r.in[i].wall)
	}
	return d
}

// roundTimes returns the raw wall and CPU milliseconds of rounds from+1..to
// and the allocator's and collector's counters over them.
func (r *simRun) roundTimes(from, to int) (wallMS, cpuMS []float64, win window) {
	for i := from; i < to; i++ {
		wallMS = append(wallMS, r.in[i].wall.Sub(r.out[i].wall).Seconds()*1e3)
		cpuMS = append(cpuMS, (r.in[i].cpu-r.out[i].cpu).Seconds()*1e3)
		win.add(r.out[i], r.in[i])
	}
	return wallMS, cpuMS, win
}

// segmentRates cuts a series of per-round times into at most n contiguous
// slices of equal length and returns each slice's rounds per second.
func segmentRates(roundMS []float64, n int) []float64 {
	size := (len(roundMS) + n - 1) / n
	var rates []float64
	for lo := 0; lo+size <= len(roundMS); lo += size {
		ms := 0.0
		for _, v := range roundMS[lo : lo+size] {
			ms += v
		}
		rates = append(rates, float64(size)*1e3/ms)
	}
	return rates
}

// badRounds counts rounds whose loss is not finite.
func (r *simRun) badRounds(from int) int {
	bad := 0
	for _, m := range r.metrics[from:] {
		if math.IsNaN(m.TrainLoss) || math.IsInf(m.TrainLoss, 0) {
			bad++
		}
	}
	return bad
}

// samplesPerRound is the training samples one round consumes, known exactly
// from the generated partition: every participating replica trains one
// pass over its host's data per local epoch. It is exact because these
// workloads' partitions are equal-sized, which the caller gates on.
func samplesPerRound(sim *fedmigr.Simulation) (n int, equal bool) {
	size := sim.Clients[0].Data.Len()
	for _, c := range sim.Clients {
		if c.Data.Len() != size {
			return 0, false
		}
	}
	participants := len(sim.Clients)
	if sim.Options.CohortSize > 0 {
		participants = sim.Options.CohortSize
	}
	return participants * size * sim.Options.AggEvery, true
}

// simPass is one untraced pass of a simulator workload: setupRepeats
// set-ups (the last one continues into the timed window) and the eight
// end-to-end metrics, the timings scaled by the pass's box speed (calib.go).
func simPass(w *workload, cfg passConfig) (*passResult, error) {
	r := newResult(w, cfg)
	warm, timed := w.sim.simRounds(cfg.scale)

	var setups []float64
	var warmHashes []string
	start := procStart
	for i := 0; i < setupRepeats-1; i++ {
		sim, err := buildSim(w.sim, cfg.seed, cfg.workers, warm, nil)
		if err != nil {
			return nil, err
		}
		sim.Run()
		setups = append(setups, time.Since(start).Seconds())
		warmHashes = append(warmHashes, modelHash(sim.Trainer.GlobalModel()))
		cfg.cal.sample(w.sim.bursts)
		start = time.Now()
	}

	sim, err := buildSim(w.sim, cfg.seed, cfg.workers, warm+timed, nil)
	if err != nil {
		return nil, err
	}
	mid := warm + timed/2
	run := &simRun{sim: sim, cal: cfg.cal, bursts: w.sim.bursts, hashAt: map[int]string{warm: "", mid: ""}}
	run.run()
	if len(run.in) != warm+timed {
		return nil, fmt.Errorf("%s: %d rounds recorded, want %d", w.name, len(run.in), warm+timed)
	}
	// The last set-up ends as the warm-up's final hook fires; the earlier
	// hooks' own time (calibration bursts) is not set-up work.
	took := run.in[warm-1].wall.Sub(start) - run.hookTime(warm-1)
	setups = append(setups, took.Seconds())

	// Every timing is a median over the window's rounds (or slices of
	// rounds): a median shrugs off a slow stretch where a total would not.
	roundMS, cpuMS, win := run.roundTimes(warm, warm+timed)
	s0, s1 := run.metrics[warm-1].Snapshot, run.metrics[warm+timed-1].Snapshot
	perRound, equal := samplesPerRound(sim)
	n := float64(timed)
	speed := cfg.cal.speed(0)

	r.Attempted = timed
	r.Failed = run.badRounds(warm)
	r.Detail.Samples = len(roundMS)
	r.Detail.BoxSpeed = speed
	r.set("setup_s", "s", median(setups)*speed)
	r.set("round_ms_p50", "ms", median(roundMS)*speed)
	r.set("cpu_ms_per_round", "ms", median(cpuMS)*speed)
	r.set("samples_per_s", "1/s", float64(perRound)*median(segmentRates(roundMS, throughputSegments))/speed)
	r.set("allocs_per_round", "count", float64(win.mallocs)/n)
	r.set("alloc_mb_per_round", "MB", float64(win.bytes)/1e6/n)
	r.set("traffic_bytes_per_round", "B", float64(s1.TotalBytes-s0.TotalBytes)/n)
	r.set("c2s_bytes_per_round", "B", float64(s1.C2SBytes-s0.C2SBytes)/n)

	r.Detail.Hashes["warm"] = run.hashAt[warm]
	r.Detail.Hashes["mid"] = run.hashAt[mid]
	r.Detail.Hashes["final"] = modelHash(sim.Trainer.GlobalModel())
	r.gate("loss_finite", r.Failed == 0, "%d of %d rounds had a non-finite loss", r.Failed, timed)
	r.gate("equal_partitions", equal, "client datasets differ in size, so samples_per_s is not exact")
	for i, h := range warmHashes {
		r.gate("setup_repeatable", h == run.hashAt[warm],
			"set-up %d reached model %.12s after warm-up, the timed run %.12s", i, h, run.hashAt[warm])
	}
	r.gateAccuracy(w, cfg, run.res.FinalAcc)
	return r, nil
}
