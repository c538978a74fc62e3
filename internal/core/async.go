package core

import (
	"container/heap"
	"fmt"
	"math"

	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// The paper defers the asynchronous setting to future work (Sec. II-A);
// this file implements it: an event-driven asynchronous federated trainer
// in the style of Xie et al.'s FedAsync (the paper's reference [20]). Each
// client independently downloads the global model, trains τ local epochs,
// and uploads; the server merges every arriving update immediately with a
// staleness-discounted mixing weight instead of waiting for a synchronous
// round.

// AsyncConfig parameterizes an asynchronous run.
type AsyncConfig struct {
	// Tau is the local epochs per client iteration (default 1).
	Tau int
	// BatchSize and LR mirror the synchronous trainer.
	BatchSize int
	LR        float64
	// Beta is the server mixing rate β: w_g ← (1−β_s)w_g + β_s·w_k with
	// β_s = β·(1+staleness)^(−StalenessExp) (default 0.6).
	Beta float64
	// StalenessExp is the polynomial staleness-discount exponent a
	// (default 0.5). 0 disables discounting.
	StalenessExp float64
	// MaxUpdates bounds the run by server merges (default 100).
	MaxUpdates int
	// EvalEvery evaluates the global model every this many merges
	// (default 10).
	EvalEvery int
	// TargetAccuracy, BandwidthBudget and TimeBudget mirror Config.
	TargetAccuracy  float64
	BandwidthBudget int64
	TimeBudget      float64
	Seed            int64
}

func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.Tau <= 0 {
		c.Tau = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Beta == 0 {
		c.Beta = 0.6
	}
	if c.StalenessExp == 0 {
		c.StalenessExp = 0.5
	}
	if c.MaxUpdates <= 0 {
		c.MaxUpdates = 100
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 10
	}
	return c
}

// AsyncTrainer runs event-driven asynchronous federated training.
type AsyncTrainer struct {
	cfg     AsyncConfig
	clients []*Client
	cost    *edgenet.CostModel
	acct    *edgenet.Accountant
	test    *data.Dataset
	factory ModelFactory
	global  *nn.Sequential
	version int

	history []RoundMetrics
}

// NewAsyncTrainer assembles an asynchronous trainer. The topology is
// implicit: every upload/download is a C2S transfer.
func NewAsyncTrainer(cfg AsyncConfig, clients []*Client, cost *edgenet.CostModel, test *data.Dataset, factory ModelFactory) (*AsyncTrainer, error) {
	cfg = cfg.withDefaults()
	if len(clients) == 0 {
		return nil, fmt.Errorf("core: async trainer needs clients")
	}
	if factory == nil {
		return nil, fmt.Errorf("core: async trainer needs a model factory")
	}
	if cost == nil {
		cost = edgenet.DefaultCostModel()
	}
	return &AsyncTrainer{
		cfg: cfg, clients: clients, cost: cost,
		acct: edgenet.NewAccountant(), test: test,
		factory: factory, global: factory(),
	}, nil
}

// Accountant exposes the run's resource accounting.
func (t *AsyncTrainer) Accountant() *edgenet.Accountant { return t.acct }

// GlobalModel returns the server's current model.
func (t *AsyncTrainer) GlobalModel() *nn.Sequential { return t.global }

// asyncEvent is one client's pending upload arrival.
type asyncEvent struct {
	at      float64 // simulated arrival time
	client  int
	version int // global version the client trained from
}

type eventQueue []asyncEvent

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(asyncEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Run executes the asynchronous session and returns the result. Wall time
// is the arrival time of the last merged update.
func (t *AsyncTrainer) Run() *Result {
	cfg := t.cfg
	res := &Result{}
	size := t.global.ByteSize()
	rng := tensor.NewRNG(cfg.Seed)

	// cycleTime returns the simulated duration of one client iteration:
	// download + τ·train + upload.
	cycleTime := func(c int) float64 {
		down := t.cost.TransferTime(c, c, edgenet.C2S, size)
		up := t.cost.TransferTime(c, c, edgenet.C2S, size)
		train := float64(cfg.Tau) * t.cost.ComputeTime(c, t.clients[c].Data.Len())
		return down + train + up
	}

	// Each client holds a private model copy trained from the version it
	// last downloaded.
	models := make([]*nn.Sequential, len(t.clients))
	opts := make([]*nn.SGD, len(t.clients))
	q := &eventQueue{}
	now := 0.0
	for c := range t.clients {
		models[c] = t.factory()
		models[c].CopyParamsFrom(t.global)
		opts[c] = nn.NewSGD(cfg.LR)
		t.acct.RecordTransfer(c, c, edgenet.C2S, size)
		heap.Push(q, asyncEvent{at: cycleTime(c), client: c, version: 0})
	}

	updates := 0
	lastLoss := math.Inf(1)
	lastAcc := 0.0
	for updates < cfg.MaxUpdates && q.Len() > 0 {
		ev := heap.Pop(q).(asyncEvent)
		now = ev.at
		c := ev.client
		if t.clients[c].Data.Len() == 0 {
			continue // failure injection: empty client drops out
		}

		// The client trained τ epochs since its download; replay that
		// training deterministically now (event-driven simulation).
		loss := 0.0
		for e := 0; e < cfg.Tau; e++ {
			loss = trainEpochSGD(models[c], opts[c], t.clients[c].Data, cfg.BatchSize)
		}
		lastLoss = loss
		t.acct.RecordTransfer(c, c, edgenet.C2S, size) // the upload

		// Staleness-discounted merge.
		staleness := float64(t.version - ev.version)
		betaS := cfg.Beta * math.Pow(1+staleness, -cfg.StalenessExp)
		gv := t.global.ParamVector()
		gv.ScaleInPlace(1-betaS).AddScaledInPlace(models[c].ParamVector(), betaS)
		t.global.SetParamVector(gv)
		t.version++
		updates++

		// The client immediately downloads the fresh global and starts its
		// next iteration.
		models[c].CopyParamsFrom(t.global)
		t.acct.RecordTransfer(c, c, edgenet.C2S, size)
		jitter := 1 + 0.05*(2*rng.Float64()-1) // desynchronize clients
		heap.Push(q, asyncEvent{at: now + cycleTime(c)*jitter, client: c, version: t.version})

		if updates%cfg.EvalEvery == 0 || updates == cfg.MaxUpdates {
			lastAcc = t.evaluate()
			t.syncWall(now)
			t.history = append(t.history, RoundMetrics{
				Epoch: updates, Round: updates, TrainLoss: loss,
				TestAcc: lastAcc, Snapshot: t.acct.Snapshot(),
			})
			if cfg.TargetAccuracy > 0 && lastAcc >= cfg.TargetAccuracy {
				res.ReachedTarget = true
				break
			}
		}
		if cfg.BandwidthBudget > 0 && t.acct.TotalTraffic() >= cfg.BandwidthBudget {
			res.BudgetExhausted = true
			break
		}
		if cfg.TimeBudget > 0 && now >= cfg.TimeBudget {
			res.BudgetExhausted = true
			break
		}
	}
	t.syncWall(now)
	res.History = t.history
	res.FinalLoss = lastLoss
	res.FinalAcc = lastAcc
	res.Epochs = updates
	res.Snapshot = t.acct.Snapshot()
	return res
}

// syncWall advances the accountant's wall clock to the event time.
func (t *AsyncTrainer) syncWall(now float64) {
	if d := now - t.acct.WallSeconds(); d > 0 {
		t.acct.AddWallTime(d)
	}
}

// evaluate measures the global model's test accuracy.
func (t *AsyncTrainer) evaluate() float64 { return evalModel(t.global, t.test) }

// trainEpochSGD runs one epoch of plain mini-batch SGD (shared by the
// asynchronous trainer; the synchronous trainer has its own FedProx-aware
// variant).
func trainEpochSGD(model *nn.Sequential, opt *nn.SGD, ds *data.Dataset, batch int) float64 {
	c, h, w := ds.Spec()
	lossSum, nb := 0.0, 0
	for lo := 0; lo < ds.Len(); lo += batch {
		hi := lo + batch
		if hi > ds.Len() {
			hi = ds.Len()
		}
		x := model.Input(hi-lo, c, h, w)
		y := ds.BatchInto(x.Data(), lo, hi)
		out := model.Forward(x, true)
		loss, grad := model.CrossEntropy(out, y)
		model.Backward(grad)
		opt.Step(model)
		lossSum += loss
		nb++
	}
	if nb == 0 {
		return 0
	}
	return lossSum / float64(nb)
}
