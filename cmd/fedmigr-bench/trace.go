package main

import (
	"fmt"
	"runtime"
	"time"

	"fedmigr"
	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/drl"
	"fedmigr/internal/nn"
	"fedmigr/internal/qp"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// A traced pass has two parts. The phase trace reruns the workload at half
// the rounds twice — telemetry off (the in-process reference) and on — and
// reads the program's existing spans and counters back; the layer replay
// (replay.go) then times each layer alone. Neither part reports end-to-end
// metrics: those come from untraced passes only.

// layerDef declares one per-layer metric; BENCHMARK.json is held to this
// table by a test, and a traced pass reports every entry (0 and listed as
// not-applicable where the workload does not exercise it).
type layerDef struct {
	name, unit string
	higherBest bool
}

var perLayer = []layerDef{
	{name: "tensor.matmul_ms", unit: "ms"},
	{name: "tensor.matmul_transa_ms", unit: "ms"},
	{name: "tensor.matmul_transb_ms", unit: "ms"},
	{name: "tensor.im2col_ms", unit: "ms"},
	{name: "tensor.col2im_ms", unit: "ms"},
	{name: "tensor.maxpool_ms", unit: "ms"},
	{name: "tensor.maxpool_bwd_ms", unit: "ms"},
	{name: "tensor.matmul_gflops", unit: "GFLOP/s", higherBest: true},
	{name: "nn.fwd_ms_per_batch", unit: "ms"},
	{name: "nn.bwd_ms_per_batch", unit: "ms"},
	{name: "nn.loss_ms_per_batch", unit: "ms"},
	{name: "nn.sgd_step_ms_per_batch", unit: "ms"},
	{name: "nn.adam_step_ms", unit: "ms"},
	{name: "nn.eval_fwd_ms", unit: "ms"},
	{name: "nn.allocs_per_batch", unit: "count"},
	{name: "nn.marshal_params_ms", unit: "ms"},
	{name: "nn.unmarshal_params_ms", unit: "ms"},
	{name: "nn.param_vector_roundtrip_ms", unit: "ms"},
	{name: "nn.copy_params_ms", unit: "ms"},
	{name: "data.synth_ms", unit: "ms"},
	{name: "data.partition_ms", unit: "ms"},
	{name: "data.batch_into_us", unit: "us"},
	{name: "sched.foreach_dispatch_us", unit: "us"},
	{name: "sched.arena_getput_ns", unit: "ns"},
	{name: "core.phase.distribution_ms", unit: "ms"},
	{name: "core.phase.local_epoch_ms", unit: "ms"},
	{name: "core.phase.migration_event_ms", unit: "ms"},
	{name: "core.phase.aggregation_ms", unit: "ms"},
	{name: "core.phase.residual_ms", unit: "ms"},
	{name: "core.round_ms_tail", unit: "ms"},
	{name: "core.round_ms_tail_pct", unit: "%"},
	{name: "core.round_ms_samples", unit: "count"},
	{name: "core.new_trainer_ms", unit: "ms"},
	{name: "core.trainstate_roundtrip_ms", unit: "ms"},
	{name: "core.migrations_per_round", unit: "count"},
	{name: "core.replay_attributed_share", unit: "ratio", higherBest: true},
	{name: "core.share.train", unit: "ratio"},
	{name: "core.share.wire", unit: "ratio"},
	{name: "core.share.migrator", unit: "ratio"},
	{name: "agg.add_ms_per_slot", unit: "ms"},
	{name: "agg.finish_ms", unit: "ms"},
	{name: "agg.fold_round_ms", unit: "ms"},
	{name: "agg.peak_live_nodes", unit: "count"},
	{name: "edgenet.transfers_per_round", unit: "count"},
	{name: "edgenet.sim_wall_s_per_round", unit: "s"},
	{name: "drl.plan_ms", unit: "ms"},
	{name: "drl.act_us", unit: "us"},
	{name: "drl.train_step_ms", unit: "ms"},
	{name: "drl.feedback_ms", unit: "ms"},
	{name: "drl.replay_len", unit: "count"},
	{name: "qp.solve_ms", unit: "ms"},
	{name: "fednet.write_msg_ms", unit: "ms"},
	{name: "fednet.read_msg_ms", unit: "ms"},
	{name: "fednet.ctrl_frame_us", unit: "us"},
	{name: "fednet.frame_overhead_bytes", unit: "B"},
	{name: "fednet.allocs_per_frame", unit: "count"},
	{name: "fednet.loopback_hop_ms", unit: "ms"},
	{name: "fednet.session_setup_ms", unit: "ms"},
	{name: "fednet.tx_bytes_per_round", unit: "B"},
	{name: "fednet.rx_bytes_per_round", unit: "B"},
	{name: "fednet.c2c_bytes_per_round", unit: "B"},
	{name: "fednet.rpc_write_p50_ms", unit: "ms"},
	{name: "fednet.rpc_read_p50_ms", unit: "ms"},
	{name: "fednet.dead_clients", unit: "count"},
	{name: "fednet.reroutes", unit: "count"},
	{name: "fednet.lost_models", unit: "count"},
	{name: "fednet.partial_rounds", unit: "count"},
	{name: "checkpoint.save_ms", unit: "ms"},
	{name: "checkpoint.load_ms", unit: "ms"},
	{name: "checkpoint.bytes", unit: "B"},
	{name: "telemetry.overhead_share", unit: "ratio"},
	{name: "telemetry.spans_per_round", unit: "count"},
	{name: "telemetry.dropped", unit: "count"},
	{name: "runtime.peak_rss_mb", unit: "MB"},
	{name: "runtime.gc_pause_ms_per_round", unit: "ms"},
	{name: "runtime.gc_cycles_per_round", unit: "count"},
	{name: "runtime.heap_inuse_mb_end", unit: "MB"},
}

// phaseSpans are the program's existing per-phase spans.
var phaseSpans = []string{"distribution", "local_epoch", "migration_event", "aggregation"}

// timedMigrator wraps the workload's DRL migrator in the traced run and
// records a span around each call into it — the benchmark's own spans at the
// drl layer boundary. It forwards everything unchanged, which the
// telemetry-must-not-perturb hash gate verifies.
type timedMigrator struct {
	inner     core.Migrator
	spans     *spanStore
	round     int // the round in progress; the traced run's hook advances it
	lastState *core.State
}

func (t *timedMigrator) Plan(s *core.State) []int {
	start := time.Now().UnixNano()
	dest := t.inner.Plan(s)
	t.spans.add("drl.plan", t.round, start, time.Now().UnixNano())
	t.lastState = s
	return dest
}

func (t *timedMigrator) Feedback(prev *core.State, action []int, next *core.State, done, success bool) {
	start := time.Now().UnixNano()
	t.inner.Feedback(prev, action, next, done, success)
	t.spans.add("drl.feedback", t.round, start, time.Now().UnixNano())
}

// refWindow is what the untraced reference half-run measured.
type refWindow struct {
	roundMS []float64
	cpuMS   float64 // raw median per round: what the replay's shares divide by
	win     window
	rounds  int
}

// setRuntime reports the collector's share of the reference run and the heap
// it ended with.
func (rw *refWindow) setRuntime(r *passResult) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(rw.rounds)
	r.set("runtime.heap_inuse_mb_end", "MB", float64(ms.HeapInuse)/1e6)
	r.set("runtime.gc_pause_ms_per_round", "ms", float64(rw.win.gcPause)/1e6/n)
	r.set("runtime.gc_cycles_per_round", "count", float64(rw.win.gcCount)/n)
}

// tracedRounds is the traced pass's round budget: the workload's warm-up and
// half its timed rounds.
func (s *simSpec) tracedRounds(scale float64) (warm, timed int) {
	warm, timed = s.simRounds(scale)
	if timed /= 2; timed < 2 {
		timed = 2
	}
	return warm, timed
}

// simTrace is the traced pass of a simulator workload.
func simTrace(w *workload, cfg passConfig) (*passResult, error) {
	r := newResult(w, cfg)
	warm, timed := w.sim.tracedRounds(cfg.scale)
	total := warm + timed

	// Reference: the same rounds with telemetry off, in this process, so
	// the overhead ratio compares like with like.
	refSim, err := buildSim(w.sim, cfg.seed, cfg.workers, total, nil)
	if err != nil {
		return nil, err
	}
	prefix := 3
	if prefix > total {
		prefix = total
	}
	ref := &simRun{sim: refSim, cal: cfg.cal, bursts: w.sim.bursts, hashAt: map[int]string{prefix: ""}}
	ref.run()
	// Each of the two runs is scaled by the box's speed while it ran.
	refSpeed, mark := cfg.cal.speed(0), cfg.cal.mark()
	rw := refWindow{rounds: timed}
	var refCPU []float64
	rw.roundMS, refCPU, rw.win = ref.roundTimes(warm, total)
	rw.cpuMS = median(refCPU)
	rw.setRuntime(r)

	// Traced: telemetry live, the driver's round span around each round.
	tel := telemetry.New()
	sim, err := buildSim(w.sim, cfg.seed, cfg.workers, total, tel)
	if err != nil {
		return nil, err
	}
	var tm *timedMigrator
	if dm, ok := sim.Migrator.(*drl.Migrator); ok {
		tm = &timedMigrator{inner: dm, spans: cfg.spans, round: 1}
		o := sim.Options
		if sim, err = fedmigr.NewWithMigrator(o, tm); err != nil {
			return nil, err
		}
	}
	run := &simRun{sim: sim, cal: cfg.cal, bursts: w.sim.bursts, hashAt: map[int]string{}}
	col := &collector{tracer: tel.Tracer(), spans: cfg.spans}
	run.onRound = func(n int) {
		// The round ran from the previous hook's exit to this hook's entry.
		col.collect(n, run.out[n-1].wall.UnixNano(), run.in[n-1].wall.UnixNano())
		if tm != nil {
			tm.round = n + 1
		}
	}
	run.run()
	tracedSpeed := cfg.cal.speed(mark)

	tracedMS, _, _ := run.roundTimes(warm, total)
	refP50, tracedP50 := median(rw.roundMS)*refSpeed, median(tracedMS)*tracedSpeed
	r.Attempted = timed
	r.Failed = run.badRounds(warm)
	r.Detail.Samples = len(tracedMS)
	r.Detail.BoxSpeed = tracedSpeed
	r.set("telemetry.overhead_share", "ratio", tracedP50/refP50-1)
	r.set("telemetry.spans_per_round", "count", float64(col.records)/float64(total))
	r.set("telemetry.dropped", "count", float64(col.overflowed)+float64(tel.Tracer().Dropped()))
	phaseMetrics(r, cfg.spans, warm)
	if v, pct, ok := tail(rw.roundMS); ok {
		r.set("core.round_ms_tail", "ms", v*refSpeed)
		r.set("core.round_ms_tail_pct", "%", pct)
	}
	r.set("core.round_ms_samples", "count", float64(len(rw.roundMS)))
	s0, s1 := run.metrics[warm-1].Snapshot, run.metrics[total-1].Snapshot
	r.set("edgenet.transfers_per_round", "count", float64(s1.NumTransfers-s0.NumTransfers)/float64(timed))
	r.set("edgenet.sim_wall_s_per_round", "s", (s1.WallSeconds-s0.WallSeconds)/float64(timed))
	r.set("core.migrations_per_round", "count",
		float64(tel.Counter("core_migrations_total").Value())/float64(total))

	// Gates: telemetry must not perturb, and the worker count must not
	// change a single bit.
	refHash, tracedHash := modelHash(refSim.Trainer.GlobalModel()), modelHash(sim.Trainer.GlobalModel())
	r.Detail.Hashes["mid"] = refHash
	r.gate("telemetry_does_not_perturb", refHash == tracedHash,
		"untraced run ended at model %.12s, traced run at %.12s", refHash, tracedHash)
	r.gate("loss_finite", r.Failed == 0, "%d of %d rounds had a non-finite loss", r.Failed, timed)
	if cfg.workers > 1 {
		serial, err := buildSim(w.sim, cfg.seed, 1, prefix, nil)
		if err != nil {
			return nil, err
		}
		serial.Run()
		h := modelHash(serial.Trainer.GlobalModel())
		r.gate("workers_invariant", h == ref.hashAt[prefix],
			"after %d rounds Workers=1 reached model %.12s, Workers=%d %.12s", prefix, h, cfg.workers, ref.hashAt[prefix])
	}

	// Layer replay on the finished run's own trained instances.
	in, err := simReplayInput(w, sim, cfg)
	if err != nil {
		return nil, err
	}
	var at attribution
	replaySched(r, in, &at)
	err = func() error {
		// Every P is busy in a simulated round; see replay.go on why the
		// replay then runs on one.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		replayTraining(r, in, &at)
		replayKernels(r, in)
		return replayModelOps(r, in, run.res.History, &at)
	}()
	if err != nil {
		return nil, err
	}
	if err := replaySimSetup(r, w, cfg); err != nil {
		return nil, err
	}
	if tm != nil {
		at.migrator = replayDRL(r, tm, cfg.spans, warm, timed)
	}
	setShares(r, at, rw.cpuMS)
	r.set("runtime.peak_rss_mb", "MB", peakRSSMB())
	return r, nil
}

// setShares reports how much of a round's CPU time the replay accounts for;
// both sides come scaled by box speed (replay.go).
func setShares(r *passResult, at attribution, cpuMS float64) {
	r.set("core.replay_attributed_share", "ratio", at.total()/cpuMS)
	r.set("core.share.train", "ratio", at.train/cpuMS)
	r.set("core.share.wire", "ratio", at.wire/cpuMS)
	r.set("core.share.migrator", "ratio", at.migrator/cpuMS)
}

// collector moves the program's records out of its bounded tracer ring into
// the span store once per round, before the ring can wrap.
type collector struct {
	tracer     *telemetry.Tracer
	spans      *spanStore
	records    int
	overflowed int // rounds whose records filled the whole ring
}

// collect files every record stamped since start — the round that ran over
// [start, end) — under that round, wraps them in the driver's round span and
// assigns parents.
func (c *collector) collect(round int, start, end int64) {
	recs := c.tracer.Records()
	first := len(recs)
	for first > 0 && recs[first-1].TimeUnixNano >= start {
		first--
	}
	if first == 0 && len(recs) >= telemetry.DefaultRingCap {
		c.overflowed++
	}
	begin := len(c.spans.spans)
	// Driver spans of this round (drl.plan/feedback) were added as they
	// happened; they sit at the tail of the store, stamped with the round.
	for begin > 0 && c.spans.spans[begin-1].Trace.Round == round && c.spans.spans[begin-1].Name != "round" {
		begin--
	}
	c.spans.add("round", round, start, end)
	for _, rec := range recs[first:] {
		c.records++
		if rec.Type == "span" {
			c.spans.add(rec.Name, round, rec.TimeUnixNano, rec.TimeUnixNano+rec.DurationNS)
		}
	}
	nest(c.spans.spans[begin:])
}

// phaseMetrics turns the collected spans into per-phase medians over the
// timed rounds: each phase's total per round, and the round's self time
// (round minus every phase: evaluation and bookkeeping, which no span
// covers today). A phase the program never emitted stays unset.
func phaseMetrics(r *passResult, st *spanStore, warm int) {
	self := selfTimes(st.spans)
	perRound := map[string]map[int]float64{}
	for _, s := range st.spans {
		if s.Trace.Round <= warm {
			continue
		}
		name, v := s.Name, float64(s.dur())/1e6
		if name == "round" {
			name, v = "residual", float64(self[s.ID])/1e6
		}
		if perRound[name] == nil {
			perRound[name] = map[int]float64{}
		}
		perRound[name][s.Trace.Round] += v
	}
	for _, name := range append([]string{"residual"}, phaseSpans...) {
		rounds := perRound[name]
		if len(rounds) == 0 {
			continue
		}
		// A phase absent from some rounds (no migration event in a FedAvg
		// round) counts as 0 there.
		vals := make([]float64, 0, len(perRound["residual"]))
		for round := range perRound["residual"] {
			vals = append(vals, rounds[round])
		}
		r.set("core.phase."+name+"_ms", "ms", median(vals))
	}
}

// batchCounts maps each mini-batch size one pass over a dataset of n samples
// produces to how many such batches a round trains, given passes per round.
func batchCounts(n, batch, passes int) map[int]int {
	counts := map[int]int{}
	for lo := 0; lo < n; lo += batch {
		b := batch
		if lo+b > n {
			b = n - lo
		}
		counts[b] += passes
	}
	return counts
}

// simReplayInput derives the replay's shapes and per-round counts from the
// assembled simulation.
func simReplayInput(w *workload, sim *fedmigr.Simulation, cfg passConfig) (*replayIn, error) {
	o := sim.Options
	participants := o.Clients
	if o.CohortSize > 0 {
		participants = o.CohortSize
	}
	var peer *nn.Sequential
	for _, m := range sim.Trainer.Models() {
		if m != nil {
			peer = m
			break
		}
	}
	if peer == nil {
		return nil, fmt.Errorf("%s: no live replica to replay on", w.name)
	}
	host := sim.Clients[0].Data
	batches := batchCounts(host.Len(), o.BatchSize, participants*o.AggEvery)
	// One fold aggregates the participants; the per-round evaluation folds
	// every replica (all K, or the cohort plus the global term).
	evalSlots := o.Clients
	if o.CohortSize > 0 {
		evalSlots = o.CohortSize + 1
	}
	return &replayIn{
		model: sim.Trainer.GlobalModel(), peer: peer, train: host, test: sim.Test,
		lr: o.LR, batches: batches, evals: 1, folds: []int{participants, evalSlots},
		copies: participants, jobs: participants, regions: o.AggEvery,
		workers: cfg.workers, seed: cfg.seed,
	}, nil
}

// replaySimSetup times the set-up path's layers: data synthesis, the
// partitioner, and what fedmigr.New adds on top of them (topology, clients,
// replicas, trainer).
func replaySimSetup(r *passResult, w *workload, cfg passConfig) error {
	o := w.sim.opts
	var train *data.Dataset
	synth := timeOp(func() {
		train, _ = data.Synthetic(data.SyntheticConfig{
			Classes: 10, Channels: 3, Height: 8, Width: 8,
			PerClass: o.PerClass, TestPer: o.PerClass, Noise: o.Noise, Seed: cfg.seed,
		})
	}) * 1e3
	part := timeOp(func() {
		g := tensor.NewRNG(cfg.seed + 3)
		if o.Partition == fedmigr.PartitionReplicate {
			data.PartitionReplicated(train, o.Clients, o.ReplicaShards, g)
		} else {
			data.PartitionShards(train, o.Clients, 1, g)
		}
	}) * 1e3
	var err error
	whole := timeOp(func() {
		if _, e := buildSim(w.sim, cfg.seed, cfg.workers, 1, nil); e != nil {
			err = e
		}
	}) * 1e3
	if err != nil {
		return err
	}
	r.set("data.synth_ms", "ms", synth)
	r.set("data.partition_ms", "ms", part)
	if rest := whole - synth - part; rest > 0 {
		r.set("core.new_trainer_ms", "ms", rest)
	}
	return nil
}

// replayDRL reports the drl layer: the in-situ spans around Plan and
// Feedback from the traced run, and unit costs replayed on the agent as the
// run left it (its replay buffer at the fill of the window's end). It
// returns the migrator's CPU-milliseconds per round.
func replayDRL(r *passResult, tm *timedMigrator, st *spanStore, warm, timed int) float64 {
	var plan, feedback []float64
	perRound := 0.0
	for _, s := range st.spans {
		// The feedback for the run's last action lands after the last hook,
		// outside any timed round.
		if s.Trace.Round <= warm || s.Trace.Round > warm+timed {
			continue
		}
		ms := float64(s.dur()) / 1e6
		switch s.Name {
		case "drl.plan":
			plan = append(plan, ms)
		case "drl.feedback":
			feedback = append(feedback, ms)
		default:
			continue
		}
		perRound += ms
	}
	r.set("drl.plan_ms", "ms", median(plan))
	r.set("drl.feedback_ms", "ms", median(feedback))
	perRound /= float64(timed)

	dm := tm.inner.(*drl.Migrator)
	s := tm.lastState
	feat := dm.Features(s, 0)
	r.set("drl.act_us", "us", timeOp(func() { dm.Agent.Act(feat) })*1e6)
	r.set("drl.replay_len", "count", float64(dm.Agent.Buffer.Len()))
	r.set("drl.train_step_ms", "ms", timeOp(func() { dm.Agent.TrainStep() })*1e3)
	// The FLMM relaxation exactly as the migrator's exploration step poses it.
	prob := &qp.Problem{Utility: qp.BuildUtility(s.D, s.CostSeconds, 0.3, 1), Iters: 30}
	r.set("qp.solve_ms", "ms", timeOp(func() { prob.Solve() })*1e3)

	// Adam on a fresh actor-shaped network: the nominal cost of one step.
	// drl.train_step_ms above runs on the agent's own optimizer state; the
	// gap between the two is the sim_drl_small step finding (README).
	k := len(s.Locations)
	g := tensor.NewRNG(1)
	actor := nn.NewSequential(
		nn.NewDense(g, drl.StateDim(k), 64), nn.NewReLU(),
		nn.NewDense(g, 64, 64), nn.NewReLU(),
		nn.NewDense(g, 64, k),
	)
	x := tensor.Randn(g, 1, 16, drl.StateDim(k))
	adam := nn.NewAdam(1e-3)
	r.set("nn.adam_step_ms", "ms", timeOp(func() {
		_, grad := nn.MSE(actor.Forward(x, true), tensor.New(16, k))
		actor.Backward(grad)
		adam.Step(actor)
	})*1e3)
	return perRound
}

// netTrace is the traced pass of net_wire_heavy: half the sessions untraced
// (reference) and half with telemetry on every node, then the layer replay.
func netTrace(w *workload, cfg passConfig) (*passResult, error) {
	r := newResult(w, cfg)
	n := w.net
	sessions := scaleRounds(n.sessions, cfg.scale, 2) / 2
	rounds := scaleRounds(n.rounds, cfg.scale, 2)
	parts, test := netData(n, cfg.seed)
	if _, err := runNetSession(n, cfg.seed, scaleRounds(n.warmRounds, cfg.scale, 1), parts, nil); err != nil {
		return nil, err
	}

	var rw refWindow
	var refHash string
	var refCPU []float64
	for i := 0; i < sessions; i++ {
		s, err := runNetSession(n, cfg.seed, rounds, parts, nil)
		if err != nil {
			return nil, err
		}
		cfg.cal.sample(n.bursts)
		rw.win.add(s.from, s.to)
		wallMS, cpuMS := s.perRound()
		rw.roundMS = append(rw.roundMS, wallMS)
		refCPU = append(refCPU, cpuMS)
		rw.rounds += rounds
		refHash = modelHash(s.srv.GlobalModel())
	}
	// Each half is scaled by the box's speed while it ran.
	refSpeed, mark := cfg.cal.speed(0), cfg.cal.mark()
	rw.cpuMS = median(refCPU)
	rw.setRuntime(r)

	tel := telemetry.New()
	var tracedMS, setupMS []float64
	var last *netSession
	for i := 0; i < sessions; i++ {
		s, err := runNetSession(n, cfg.seed, rounds, parts, tel)
		if err != nil {
			return nil, err
		}
		cfg.cal.sample(n.bursts)
		cfg.spans.add("session", 0, s.from.wall.UnixNano(), s.to.wall.UnixNano())
		setupMS = append(setupMS, s.from.wall.Sub(s.began).Seconds()*1e3)
		wallMS, _ := s.perRound()
		tracedMS = append(tracedMS, wallMS)
		r.Attempted += rounds
		r.Failed += s.failedRounds()
		gateSession(r, n, s)
		last = s
	}
	tracedHash := modelHash(last.srv.GlobalModel())
	r.Detail.Hashes["final"] = refHash
	r.gate("telemetry_does_not_perturb", refHash == tracedHash,
		"untraced session ended at model %.12s, traced session at %.12s", refHash, tracedHash)
	r.gateAccuracy(w, cfg, accuracy(last.srv.GlobalModel(), test))

	nr := float64(r.Attempted)
	snap := tel.Snapshot()
	count := func(role, dir string) float64 { return byteCounter(tel, role, dir) }
	r.Detail.Samples = len(tracedMS)
	tracedSpeed := cfg.cal.speed(mark)
	r.Detail.BoxSpeed = tracedSpeed
	r.set("telemetry.overhead_share", "ratio", median(tracedMS)*tracedSpeed/(median(rw.roundMS)*refSpeed)-1)
	r.set("telemetry.spans_per_round", "count", float64(len(tel.Tracer().Records()))/nr)
	r.set("telemetry.dropped", "count", float64(tel.Tracer().Dropped()))
	r.set("core.round_ms_samples", "count", float64(len(rw.roundMS)))
	r.set("fednet.session_setup_ms", "ms", median(setupMS))
	r.set("fednet.tx_bytes_per_round", "B", (count("server", "tx")+count("client", "tx"))/nr)
	r.set("fednet.rx_bytes_per_round", "B", (count("server", "rx")+count("client", "rx"))/nr)
	r.set("fednet.c2c_bytes_per_round", "B", (count("client", "tx")-count("server", "rx"))/nr)
	r.set("fednet.rpc_write_p50_ms", "ms", snap.Histograms["fednet_rpc_seconds{role=client,op=write}"].P50*1e3)
	r.set("fednet.rpc_read_p50_ms", "ms", snap.Histograms["fednet_rpc_seconds{role=client,op=read}"].P50*1e3)
	st := last.srv.Stats()
	r.set("fednet.dead_clients", "count", float64(st.DeadClients))
	r.set("fednet.reroutes", "count", float64(st.Reroutes))
	r.set("fednet.lost_models", "count", float64(st.LostModels))
	r.set("fednet.partial_rounds", "count", float64(st.PartialRounds))
	r.set("core.migrations_per_round", "count", float64(n.k*(n.aggEvery-1)))

	// Layer replay at the session's shapes. A round makes 4·K model hops:
	// K distribute, (AggEvery−1)·K C2C migrate, K upload.
	host := parts[0]
	batches := batchCounts(host.Len(), n.batch, n.k*n.aggEvery)
	in := &replayIn{
		model: last.srv.GlobalModel(), peer: netFactory(cfg.seed, n.hidden)(),
		train: host, test: test, lr: 0.05, batches: batches,
		folds: []int{n.k}, jobs: n.k, workers: cfg.workers, seed: cfg.seed,
	}
	var at attribution
	replaySched(r, in, &at)
	replayTraining(r, in, &at)
	replayKernels(r, in)
	history := make([]core.RoundMetrics, len(last.srv.History))
	for i, loss := range last.srv.History {
		history[i] = core.RoundMetrics{Epoch: (i + 1) * n.aggEvery, Round: i + 1, TrainLoss: loss}
	}
	if err := replayModelOps(r, in, history, &at); err != nil {
		return nil, err
	}
	hopMS, err := replayWire(r, in)
	if err != nil {
		return nil, err
	}
	at.wire = float64(n.k*(n.aggEvery+1)) * hopMS
	// Control frames per round: per event K completions, per migration
	// event K orders + K done, per aggregation K orders.
	ctrl := float64(n.k * (n.aggEvery + 2*(n.aggEvery-1) + 1))
	at.other += ctrl * r.Metrics["fednet.ctrl_frame_us"].Value / 1e3
	setShares(r, at, rw.cpuMS)
	r.set("runtime.peak_rss_mb", "MB", peakRSSMB())
	return r, nil
}
