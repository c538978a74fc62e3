package core_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/drl"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/privacy"
	"fedmigr/internal/tensor"
)

// roundsFixture builds the six-client workload TestRunMatchesRunRounds runs
// every arm on: non-IID shards over two LANs, a small MLP, and a jittered
// cost model (so the transfer-time draws must also line up).
func roundsFixture() ([]*core.Client, *edgenet.Topology, *edgenet.CostModel, *data.Dataset, core.ModelFactory) {
	const k = 6
	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: k, Channels: 1, Height: 4, Width: 4,
		PerClass: 12, TestPer: 6, Noise: 0.5, Seed: 51,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(51))
	clients := make([]*core.Client, k)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: parts[i]}
	}
	cost := edgenet.DefaultCostModel()
	cost.Jitter = 0.1
	cost.Seed(57)
	factory := func() *nn.Sequential {
		g := tensor.NewRNG(53)
		return nn.NewSequential(nn.NewFlatten(), nn.NewDense(g, 16, 24), nn.NewReLU(), nn.NewDense(g, 24, k))
	}
	return clients, edgenet.EvenTopology(k, 2), cost, test, factory
}

func modelDigest(t *testing.T, m *nn.Sequential) string {
	t.Helper()
	b, err := m.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestRunMatchesRunRounds pins the one-round-body contract: Run over R
// rounds is R RunRound calls. Every arm builds two identical trainers —
// one driven by Run, one stepped by RunRound — and requires the same
// global digest and the same metrics row after every round.
func TestRunMatchesRunRounds(t *testing.T) {
	const rounds = 3
	arms := []struct {
		name string
		cfg  core.Config
		mig  func() core.Migrator // fresh per trainer: policies keep state
		ldp  bool                 // likewise the privacy mechanism's noise stream
	}{
		{name: "fedavg", cfg: core.Config{Scheme: core.FedAvg}},
		{name: "fedprox", cfg: core.Config{Scheme: core.FedProx, ProxMu: 0.01}},
		{name: "fedswap", cfg: core.Config{Scheme: core.FedSwap}},
		{name: "randmigr", cfg: core.Config{Scheme: core.RandMigr},
			mig: func() core.Migrator { return core.NewRandomMigrator(61) }},
		{name: "fedmigr-greedy", cfg: core.Config{Scheme: core.FedMigr},
			mig: func() core.Migrator { return &core.GreedyEMDMigrator{CostWeight: 0.1} }},
		{name: "fedmigr-drl", cfg: core.Config{Scheme: core.FedMigr},
			mig: func() core.Migrator { return drl.NewMigrator(drl.MigratorConfig{K: 6, Seed: 63}) }},
		{name: "cohort-3-of-6", cfg: core.Config{Scheme: core.FedAvg, CohortSize: 3}},
		{name: "tau-2", cfg: core.Config{Scheme: core.FedMigr, Tau: 2},
			mig: func() core.Migrator { return &core.GreedyEMDMigrator{CostWeight: 0.1} }},
		{name: "ldp-eps-50", cfg: core.Config{Scheme: core.RandMigr}, ldp: true,
			mig: func() core.Migrator { return core.NewRandomMigrator(65) }},
		{name: "crash", cfg: core.Config{Scheme: core.FedMigr, Faults: faults.NewPlan(67).CrashAt(2, 4)},
			mig: func() core.Migrator { return &core.GreedyEMDMigrator{CostWeight: 0.1} }},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			build := func() *core.Trainer {
				cfg := arm.cfg
				cfg.AggEvery, cfg.BatchSize, cfg.Workers, cfg.Seed = 3, 8, 1, 59
				cfg.MaxEpochs = rounds * cfg.AggEvery * max(cfg.Tau, 1)
				if arm.ldp {
					mech, err := privacy.NewMechanism(50, 1e-5, 10, 69)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Privacy = mech
				}
				var mig core.Migrator
				if arm.mig != nil {
					mig = arm.mig()
				}
				clients, topo, cost, test, factory := roundsFixture()
				tr, err := core.NewTrainer(cfg, clients, topo, cost, test, factory, mig)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}

			run := build()
			var runRows []core.RoundMetrics
			var runDigests []string
			run.SetRoundHook(func(rm core.RoundMetrics, g *nn.Sequential) {
				runRows = append(runRows, rm)
				runDigests = append(runDigests, modelDigest(t, g))
			})
			res := run.Run()

			step := build()
			defer step.Close()
			for r := 0; r < rounds; r++ {
				rm := step.RunRound(nil)
				if r >= len(runRows) {
					t.Fatalf("Run fired its round hook %d times, want %d", len(runRows), rounds)
				}
				if got := modelDigest(t, step.GlobalModel()); got != runDigests[r] {
					t.Fatalf("round %d: RunRound global %.12s, Run global %.12s", r+1, got, runDigests[r])
				}
				want := runRows[r]
				if rm.Epoch != want.Epoch || rm.Round != want.Round || rm.TrainLoss != want.TrainLoss ||
					rm.TestAcc != want.TestAcc || rm.Snapshot != want.Snapshot {
					t.Fatalf("round %d rows differ:\nRunRound %+v\nRun      %+v", r+1, rm, want)
				}
			}
			if len(runRows) != rounds || len(res.History) != rounds {
				t.Fatalf("Run: %d hook calls and %d history rows, want %d of each", len(runRows), len(res.History), rounds)
			}
			if res.Rounds != rounds || res.Epochs != step.Epoch() || res.Snapshot != step.Accountant().Snapshot() {
				t.Fatalf("Run result rounds %d epochs %d %+v; RunRound epochs %d %+v",
					res.Rounds, res.Epochs, res.Snapshot, step.Epoch(), step.Accountant().Snapshot())
			}
			if res.FinalAcc != runRows[rounds-1].TestAcc {
				t.Fatalf("FinalAcc %v is not the last closed round's accuracy %v", res.FinalAcc, runRows[rounds-1].TestAcc)
			}
		})
	}
}
