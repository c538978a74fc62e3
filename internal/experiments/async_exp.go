package experiments

import (
	"fmt"

	fedmigr "fedmigr"
	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

func init() {
	register(asyncExp{})
}

// asyncExp exercises the paper's declared future work (Sec. II-A defers
// the asynchronous setting): it compares synchronous FedAvg, synchronous
// FedMigr and asynchronous staleness-discounted merging (FedAsync-style,
// the paper's reference [20]) on the same heterogeneous-client workload.
// Expected shape, consistent with the paper's related-work discussion:
// async shines in wall-clock time when clients are heterogeneous (no
// straggler barrier) but handles non-IID data worse than migration.
type asyncExp struct{}

func (asyncExp) ID() string { return "async" }
func (asyncExp) Title() string {
	return "Extension — synchronous vs asynchronous FL (future work of Sec. II-A)"
}

func (asyncExp) Run(p Params) (*Report, error) {
	p = p.withDefaults()
	rep := &Report{
		ID: "async", Title: "Sync vs async on heterogeneous clients, non-IID data",
		Header: []string{"scheme", "best acc", "C2S traffic", "wall time"},
		Notes: []string{
			"clients are 4x compute-heterogeneous; sync rounds wait for stragglers, async merges on arrival",
			"expected (Sec. I): async does not handle non-IID well and stays C2S-bound; FedMigr wins both accuracy and cost",
		},
	}
	const k = 10
	// Heterogeneous compute: half the clients are 4x slower. Each run gets
	// its own cost model from the same seed: a shared one would hand every
	// run the jitter draws the runs before it left over.
	hetCost := func() *edgenet.CostModel {
		cost := paperCost(p.Seed + 7)
		cost.ComputeRate = make([]float64, k)
		for i := range cost.ComputeRate {
			if i%2 == 0 {
				cost.ComputeRate[i] = cost.DefaultComputeRate
			} else {
				cost.ComputeRate[i] = cost.DefaultComputeRate / 4
			}
		}
		return cost
	}

	epochs := p.scaleInt(40, 10)
	for _, s := range []struct {
		name   string
		scheme fedmigr.Scheme
		agg    int
		mig    fedmigr.MigratorKind
	}{
		{"FedAvg (sync)", fedmigr.SchemeFedAvg, 1, ""},
		{"FedMigr (sync)", fedmigr.SchemeFedMigr, 5, fedmigr.MigratorGreedyEMD},
	} {
		o := baseOptions(p, s.scheme)
		o.AggEvery = s.agg
		o.Migrator = s.mig
		o.Epochs = epochs
		o.Cost = hetCost()
		res, err := fedmigr.Run(o)
		if err != nil {
			return nil, fmt.Errorf("async %s: %w", s.name, err)
		}
		rep.Rows = append(rep.Rows, []string{
			s.name, pct(res.BestAcc()), mb(res.Snapshot.C2SBytes), secs(res.Snapshot.WallSeconds),
		})
	}

	// Asynchronous run at a matched number of merged updates (one sync
	// FedAvg epoch merges K updates).
	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: 10, Channels: 3, Height: 8, Width: 8,
		PerClass: p.scaleInt(20, 8), TestPer: p.scaleInt(20, 8),
		Noise: 3.0, Seed: p.Seed,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(p.Seed+3))
	clients := make([]*core.Client, k)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: parts[i]}
	}
	seed := p.Seed + 11
	factory := func() *nn.Sequential {
		g := tensor.NewRNG(seed)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, 3*8*8, 48), nn.NewReLU(),
			nn.NewDense(g, 48, 10),
		)
	}
	at, err := core.NewAsyncTrainer(core.AsyncConfig{
		MaxUpdates: epochs * k, EvalEvery: k, LR: 0.05, Seed: p.Seed,
	}, clients, hetCost(), test, factory)
	if err != nil {
		return nil, fmt.Errorf("async trainer: %w", err)
	}
	res := at.Run()
	rep.Rows = append(rep.Rows, []string{
		"FedAsync (async)", pct(res.BestAcc()), mb(res.Snapshot.C2SBytes), secs(res.Snapshot.WallSeconds),
	})
	return rep, nil
}
