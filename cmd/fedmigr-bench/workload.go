package main

import (
	"fedmigr"
	"fedmigr/internal/core"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// runSeconds is the nominal length of one run's timed window and must equal
// run_seconds in BENCHMARK.json: -seconds scales every workload's round
// counts by seconds/runSeconds. Work is always a fixed round count, never a
// wall-clock cutoff, so allocation and byte counts stay exact.
const runSeconds = 10

// workload is one named benchmark scenario. Exactly one of sim and net is
// set. Names are fixed: later issues cite them.
type workload struct {
	name string
	why  string
	// accFloor is the final test accuracy of the global model the
	// correctness gate demands at full scale.
	accFloor float64
	sim      *simSpec
	net      *netSpec
}

// simSpec describes a simulator workload: the generated Options (minus the
// seed, worker count, epoch budget and telemetry, which the pass fills in)
// and its round budget at -seconds = runSeconds.
type simSpec struct {
	opts        fedmigr.Options
	warm, timed int
	// bursts is the calibration bursts after every round (calib.go): about
	// a twentieth of the round's time.
	bursts int
}

// netSpec describes the loopback-TCP workload: K is fixed (not scaled with
// nproc) so numbers compare across boxes.
type netSpec struct {
	k, perClass, batch, aggEvery int
	hidden                       int
	warmRounds                   int // the warm-up session's length
	sessions, rounds             int // timed sessions × rounds each
	byteRounds                   int // the telemetry-on byte-count session's length
	bursts                       int // calibration bursts before every session (calib.go)
}

var workloads = []workload{
	{
		name: "sim_cnn_compute",
		why:  "FedMigr+greedy-EMD, C10 CNN, 20 clients: local training (tensor/nn conv and matmul kernels) dominates; kernel and arena work must show here, wire and DRL work must not",
		sim: &simSpec{
			opts: fedmigr.Options{
				Scheme: fedmigr.SchemeFedMigr, Migrator: fedmigr.MigratorGreedyEMD,
				Dataset: fedmigr.DatasetC10, Partition: fedmigr.PartitionShards, Model: fedmigr.ModelC10CNN,
				Clients: 20, LANs: 4, PerClass: 200, Noise: 1.6, BatchSize: 32, AggEvery: 5,
			},
			warm: 2, timed: 16, bursts: 30,
		},
		accFloor: 0.15,
	},
	{
		name: "sim_drl_small",
		why:  "the paper's C10 layout (10 clients, LANs 4/3/3), DDPG+PER+FLMM migrator, MLP: tiny matmuls, Adam, replay sampling, qp.Solve; a kernel tuned for big shapes that taxes small ones loses here",
		sim: &simSpec{
			opts: fedmigr.Options{
				Scheme: fedmigr.SchemeFedMigr, Migrator: fedmigr.MigratorDRL,
				Dataset: fedmigr.DatasetC10, Partition: fedmigr.PartitionShards, Model: fedmigr.ModelMLP,
				Clients: 10, LANs: 3, PerClass: 20, Noise: 1.6, BatchSize: 8, AggEvery: 10,
			},
			warm: 5, timed: 70, bursts: 4,
		},
		accFloor: 0.15,
	},
	{
		name: "sim_cohort_scale",
		why:  "FedAvg, 100000 lazily hydrated clients, cohort 64, 4 streaming aggregators: sampling, hydration, agg fold, evaluation and GC outweigh kernels; judges the round engine and agg; 600 rounds give a tail",
		sim: &simSpec{
			opts: fedmigr.Options{
				Scheme: fedmigr.SchemeFedAvg, Dataset: fedmigr.DatasetC10, Partition: fedmigr.PartitionReplicate,
				Model: fedmigr.ModelMLP, Clients: 100000, LANs: 100, ReplicaShards: 64,
				CohortSize: 64, Aggregators: 4, PerClass: 32, BatchSize: 8, AggEvery: 1,
			},
			warm: 20, timed: 600, bursts: 1,
		},
		accFloor: 0.3,
	},
	{
		name: "net_wire_heavy",
		why:  "real loopback TCP, server + 4 clients, 0.83 MB model frames, 16 model hops a round against 1.4 ms of training a batch: wire encode/decode-bound by construction; typed wire frames must show only here",
		net: &netSpec{
			k: 4, perClass: 8, batch: 8, aggEvery: 3, hidden: 512,
			warmRounds: 5, sessions: 20, rounds: 10, byteRounds: 6, bursts: 30,
		},
		accFloor: 0.8,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaleRounds scales a round budget, keeping at least min rounds.
func scaleRounds(n int, scale float64, min int) int {
	r := int(float64(n)*scale + 0.5)
	if r < min {
		r = min
	}
	return r
}

// netFactory is net_wire_heavy's model: Flatten→Dense(192,hidden)→ReLU→
// Dense(hidden,10); at hidden=512 that is 103 946 parameters, 0.83 MB per
// model frame.
func netFactory(seed int64, hidden int) core.ModelFactory {
	return func() *nn.Sequential {
		g := tensor.NewRNG(seed + 11)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, 192, hidden), nn.NewReLU(),
			nn.NewDense(g, hidden, 10),
		)
	}
}

// metricDef declares one end-to-end metric. The table below is the source
// of truth for the suite report and -compare; a test holds BENCHMARK.json
// to it.
type metricDef struct {
	name, unit string
	lowerBest  bool
	bound      float64
	// exact marks a count that repeats bit-for-bit for a given seed:
	// -compare demands equality when both files used the same seed.
	exact bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", lowerBest: true, bound: 0.25},
	{name: "round_ms_p50", unit: "ms", lowerBest: true, bound: 0.25},
	{name: "cpu_ms_per_round", unit: "ms", lowerBest: true, bound: 0.25},
	{name: "samples_per_s", unit: "1/s", lowerBest: false, bound: 0.25},
	{name: "allocs_per_round", unit: "count", lowerBest: true, bound: 0.02},
	{name: "alloc_mb_per_round", unit: "MB", lowerBest: true, bound: 0.02},
	{name: "traffic_bytes_per_round", unit: "B", lowerBest: true, bound: 0.03, exact: true},
	{name: "c2s_bytes_per_round", unit: "B", lowerBest: true, bound: 0.01, exact: true},
}
