package core

import (
	"fmt"
	"math"

	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// GossipTrainer implements the serverless decentralized-SGD baseline of
// the paper's related work (Matcha-style, reference [46]): there is no
// parameter server at all — each round, clients train locally and then
// average their models pairwise along randomly matched C2C links. It
// completes the baseline spectrum: centralized every-epoch (FedAvg),
// centralized periodic with migration (FedMigr), asynchronous
// (AsyncTrainer), and fully decentralized (this).
type GossipTrainer struct {
	cfg     GossipConfig
	clients []*Client
	topo    *edgenet.Topology
	cost    *edgenet.CostModel
	acct    *edgenet.Accountant
	test    *data.Dataset
	factory ModelFactory
	models  []*nn.Sequential
	opts    []*nn.SGD
	rng     *tensor.RNG

	evalReplica *nn.Sequential // Run's consensus replica, built on first use
	history     []RoundMetrics
}

// GossipConfig parameterizes decentralized training.
type GossipConfig struct {
	// Rounds is the number of train+gossip rounds.
	Rounds int
	// PairsPerRound is how many disjoint pairs average per round
	// (default: K/2 — a full random matching).
	PairsPerRound int
	BatchSize     int
	LR            float64
	// EvalEvery evaluates the consensus (average of all models) every this
	// many rounds (default 5).
	EvalEvery int
	Seed      int64
}

func (c GossipConfig) withDefaults(k int) GossipConfig {
	if c.Rounds <= 0 {
		c.Rounds = 20
	}
	if c.PairsPerRound <= 0 {
		c.PairsPerRound = k / 2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 5
	}
	return c
}

// NewGossipTrainer assembles a decentralized trainer over the topology.
func NewGossipTrainer(cfg GossipConfig, clients []*Client, topo *edgenet.Topology, cost *edgenet.CostModel, test *data.Dataset, factory ModelFactory) (*GossipTrainer, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("core: gossip trainer needs clients")
	}
	if topo == nil || topo.K() != len(clients) {
		return nil, fmt.Errorf("core: gossip topology/client mismatch")
	}
	if factory == nil {
		return nil, fmt.Errorf("core: gossip trainer needs a model factory")
	}
	if cost == nil {
		cost = edgenet.DefaultCostModel()
	}
	cfg = cfg.withDefaults(len(clients))
	t := &GossipTrainer{
		cfg: cfg, clients: clients, topo: topo, cost: cost,
		acct: edgenet.NewAccountant(), test: test, factory: factory,
		rng: tensor.NewRNG(cfg.Seed),
	}
	ref := factory()
	t.models = make([]*nn.Sequential, len(clients))
	t.opts = make([]*nn.SGD, len(clients))
	for i := range clients {
		t.models[i] = factory()
		t.models[i].CopyParamsFrom(ref)
		t.opts[i] = nn.NewSGD(cfg.LR)
	}
	return t, nil
}

// Accountant exposes the run's resource accounting.
func (t *GossipTrainer) Accountant() *edgenet.Accountant { return t.acct }

// ConsensusModel returns the uniform average of all client models — the
// decentralized counterpart of a global model.
func (t *GossipTrainer) ConsensusModel() *nn.Sequential { return t.consensusInto(t.factory()) }

// consensusInto overwrites avg's parameters with the consensus average.
func (t *GossipTrainer) consensusInto(avg *nn.Sequential) *nn.Sequential {
	vec := tensor.New(avg.NumParams())
	for _, m := range t.models {
		vec.AddScaledInPlace(m.ParamVector(), 1/float64(len(t.models)))
	}
	avg.SetParamVector(vec)
	return avg
}

// Run executes the decentralized session.
func (t *GossipTrainer) Run() *Result {
	cfg := t.cfg
	res := &Result{}
	size := t.models[0].ByteSize()
	lastLoss, lastAcc := math.Inf(1), 0.0
	for round := 1; round <= cfg.Rounds; round++ {
		// Local training, all clients in parallel.
		wall := 0.0
		lossSum, n := 0.0, 0
		for c := range t.clients {
			ds := t.clients[c].Data
			if ds.Len() == 0 {
				continue
			}
			lossSum += trainEpochSGD(t.models[c], t.opts[c], ds, cfg.BatchSize)
			n++
			ct := t.cost.ComputeTime(c, ds.Len())
			t.acct.AddComputeTime(ct)
			if ct > wall {
				wall = ct
			}
		}
		if n > 0 {
			lastLoss = lossSum / float64(n)
		}
		t.acct.AddWallTime(wall)

		// Random disjoint matching; each pair exchanges models over their
		// C2C link and both adopt the average.
		perm := t.rng.Perm(len(t.clients))
		maxT := 0.0
		for p := 0; p+1 < len(perm) && p/2 < cfg.PairsPerRound; p += 2 {
			a, b := perm[p], perm[p+1]
			kind := t.topo.Kind(a, b)
			// Both directions: a→b and b→a.
			t.acct.RecordTransfer(a, b, kind, size)
			t.acct.RecordTransfer(b, a, kind, size)
			if tt := 2 * t.cost.TransferTime(a, b, kind, size); tt > maxT {
				maxT = tt
			}
			va, vb := t.models[a].ParamVector(), t.models[b].ParamVector()
			va.ScaleInPlace(0.5).AddScaledInPlace(vb, 0.5)
			t.models[a].SetParamVector(va)
			t.models[b].SetParamVector(va)
		}
		t.acct.AddWallTime(maxT)

		if round%cfg.EvalEvery == 0 || round == cfg.Rounds {
			if t.evalReplica == nil {
				t.evalReplica = t.factory()
			}
			lastAcc = evalModel(t.consensusInto(t.evalReplica), t.test)
			t.history = append(t.history, RoundMetrics{
				Epoch: round, Round: round, TrainLoss: lastLoss,
				TestAcc: lastAcc, Snapshot: t.acct.Snapshot(),
			})
		}
	}
	res.History = t.history
	res.FinalLoss = lastLoss
	res.FinalAcc = lastAcc
	res.Epochs = cfg.Rounds
	res.Snapshot = t.acct.Snapshot()
	return res
}

// evalModel measures a model's test accuracy (0 with no test set) — the
// one evaluation loop of every trainer. Batches go through the model's own
// input buffer and its layers' own outputs, so a model evaluated every
// round allocates its workspace once.
func evalModel(m *nn.Sequential, test *data.Dataset) float64 {
	if test == nil || test.Len() == 0 {
		return 0
	}
	const batch = 256
	c, h, w := test.Spec()
	correct, total := 0.0, 0
	for lo := 0; lo < test.Len(); lo += batch {
		hi := lo + batch
		if hi > test.Len() {
			hi = test.Len()
		}
		x := m.Input(hi-lo, c, h, w)
		y := test.BatchInto(x.Data(), lo, hi)
		out := m.Forward(x, false)
		correct += nn.Accuracy(out, y) * float64(hi-lo)
		total += hi - lo
	}
	return correct / float64(total)
}
