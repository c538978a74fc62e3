package core

import (
	"fmt"
	"math"

	"fedmigr/internal/agg"
	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// This file implements the FedHENet-style one-shot analytic trainer: a
// frozen random-feature extractor shared by every client (seeded, so its
// weights cost zero transfer) plus a closed-form ridge-regression head.
// Each client k computes the Gram matrix G_k = Φ̃ᵀΦ̃ and moment matrix
// M_k = Φ̃ᵀY_k of its augmented feature map Φ̃ = [relu(XWᵀ+b) | 1] over
// one-hot labels, uploads the pair ONCE, and the server solves
// (ΣG + λI)·W = ΣM. Federation is exact — summed Grams equal the
// centralized Gram — so training converges in exactly one communication
// round, the communication-frugality extreme the clustered/migration
// schemes are compared against.
//
// Determinism: the extractor is a pure function of the seed, per-client
// statistics are computed in index-private buffers (parallel across
// clients like localEpoch), and the reduction runs through the same
// fixed-shape internal/agg fold tree as model aggregation — bit-identical
// for any worker count.

// AnalyticConfig parameterizes the one-shot analytic trainer.
type AnalyticConfig struct {
	// Features is the random-feature width F of the frozen extractor
	// (default 64).
	Features int
	// Ridge is the ℓ2 regularizer λ of the closed-form solve (default 1e-3).
	Ridge float64
	// Workers sizes the worker pool (0 = NumCPU, 1 = serial); ignored when
	// Pool is set. Any value produces bit-identical results.
	Workers int
	// Pool, when non-nil, is a shared scheduler pool the trainer will not
	// close.
	Pool *sched.Pool
	// Seed drives the frozen extractor's weights.
	Seed int64
}

func (c AnalyticConfig) withDefaults() AnalyticConfig {
	if c.Features <= 0 {
		c.Features = 64
	}
	if c.Ridge <= 0 {
		c.Ridge = 1e-3
	}
	return c
}

// AnalyticTrainer runs one-shot analytic federated learning over the same
// client/topology/cost substrate as Trainer.
type AnalyticTrainer struct {
	cfg     AnalyticConfig
	clients []*Client
	topo    *edgenet.Topology
	cost    *edgenet.CostModel
	test    *data.Dataset
	acct    *edgenet.Accountant
	pool    *sched.Pool
	ownPool bool
	tel     *telemetry.Telemetry

	classes int
	inDim   int
	global  *nn.Sequential
	upload  int64
}

// NewAnalyticTrainer validates the substrate and assembles a trainer.
func NewAnalyticTrainer(cfg AnalyticConfig, clients []*Client, topo *edgenet.Topology, cost *edgenet.CostModel, test *data.Dataset) (*AnalyticTrainer, error) {
	cfg = cfg.withDefaults()
	if len(clients) == 0 {
		return nil, fmt.Errorf("core: analytic trainer needs clients")
	}
	if topo == nil || topo.K() != len(clients) {
		return nil, fmt.Errorf("core: topology/client count mismatch")
	}
	if test == nil || test.Len() == 0 {
		return nil, fmt.Errorf("core: analytic trainer needs a test set")
	}
	for i, c := range clients {
		if c == nil || c.Data == nil || c.Data.Len() == 0 {
			return nil, fmt.Errorf("core: client %d has no data", i)
		}
	}
	if cost == nil {
		cost = edgenet.DefaultCostModel()
	}
	ch, h, w := test.Spec()
	t := &AnalyticTrainer{
		cfg: cfg, clients: clients, topo: topo, cost: cost, test: test,
		acct: edgenet.NewAccountant(), classes: test.Classes, inDim: ch * h * w,
		pool: cfg.Pool,
	}
	if t.pool == nil {
		t.pool = sched.New(cfg.Workers)
		t.ownPool = true
	}
	return t, nil
}

// SetTelemetry instruments the run (traffic counters plus one
// analytic_round event).
func (t *AnalyticTrainer) SetTelemetry(tel *telemetry.Telemetry) {
	t.tel = tel
	t.acct.Mirror(tel.Registry())
}

// Accountant exposes the traffic/time ledger.
func (t *AnalyticTrainer) Accountant() *edgenet.Accountant { return t.acct }

// GlobalModel returns the solved model (nil before Run).
func (t *AnalyticTrainer) GlobalModel() *nn.Sequential { return t.global }

// UploadBytes returns the total client→server statistic upload volume.
func (t *AnalyticTrainer) UploadBytes() int64 { return t.upload }

// Close releases the trainer's pool when it owns one.
func (t *AnalyticTrainer) Close() {
	if t.ownPool {
		t.pool.Close()
	}
}

// extractor returns the frozen feature map: Flatten → Dense(in→F) → ReLU
// with Xavier weights and uniform biases from the seed. Every call
// reconstructs identical weights, which is why distributing it costs no
// traffic — clients regenerate it from the broadcast seed.
func (t *AnalyticTrainer) extractor() (*nn.Dense, *nn.Sequential) {
	g := tensor.NewRNG(t.cfg.Seed + 13)
	d := nn.NewDense(g, t.inDim, t.cfg.Features)
	bd := d.B.Data()
	for i := range bd {
		bd[i] = 2*g.Float64() - 1
	}
	return d, nn.NewSequential(nn.NewFlatten(), d, nn.NewReLU())
}

// Run executes the single analytic round and returns the standard Result.
func (t *AnalyticTrainer) Run() *Result {
	started := telemetry.Now()
	prev := tensor.InstallPool(t.pool)
	defer tensor.InstallPool(prev)

	k := len(t.clients)
	f1 := t.cfg.Features + 1
	gramDim := f1 * f1
	dim := gramDim + f1*t.classes

	// Per-client Gram/moment statistics, index-private, in parallel. Each
	// job builds its own extractor from the shared seed: identical weights
	// without sharing layer caches across goroutines.
	rows := make([][]float64, k)
	t.pool.ForEach("analytic_stats", k, func(i int) {
		_, ext := t.extractor()
		rows[i] = t.clientStats(ext, t.clients[i].Data, dim)
	})

	// Exact federation through the same fold tree model aggregation uses:
	// leaves arrive weight-1 in slot order, Finish(1) is the plain sum.
	acc := agg.New(k, dim)
	for i := 0; i < k; i++ {
		if err := acc.Add(i, rows[i], 1); err != nil {
			panic(fmt.Sprintf("core: analytic fold: %v", err))
		}
	}
	sum := acc.Finish(1)
	total := append([]float64(nil), sum.Data()...)
	tensor.PutScratch(sum)

	t.chargeRound(dim)

	gram := tensor.FromSlice(total[:gramDim], f1, f1)
	moment := tensor.FromSlice(total[gramDim:], f1, t.classes)

	// Training SSE from the normal-equation identities, no second data
	// pass: ‖Φ̃W−Y‖² = tr(WᵀGW) − 2·tr(WᵀM) + N with one-hot Y.
	w := t.solve(gram, moment)
	samples := 0
	for _, c := range t.clients {
		samples += c.Data.Len()
	}
	gw := tensor.MatMul(gram, w)
	sse := float64(samples)
	wd, gwd, md := w.Data(), gw.Data(), moment.Data()
	for i := range wd {
		sse += wd[i]*gwd[i] - 2*wd[i]*md[i]
	}
	loss := math.Max(sse, 0) / float64(samples)

	t.global = t.assemble(w)
	acc2 := t.evaluate()
	dur := telemetry.Since(started)
	if t.tel != nil {
		t.tel.Event("analytic_round", "clients", k, "features", t.cfg.Features,
			"upload_bytes", t.upload, "acc", acc2, "loss", loss)
	}
	snap := t.acct.Snapshot()
	return &Result{
		History: []RoundMetrics{{
			Epoch: 1, Round: 1, TrainLoss: loss, TestAcc: acc2,
			Duration: dur, Snapshot: snap,
		}},
		FinalLoss: loss, FinalAcc: acc2, Epochs: 1, Rounds: 1,
		Duration: dur, Snapshot: snap,
	}
}

// clientStats computes one client's flattened [G | M] statistics.
func (t *AnalyticTrainer) clientStats(ext *nn.Sequential, ds *data.Dataset, dim int) []float64 {
	f := t.cfg.Features
	f1 := f + 1
	gram := tensor.New(f1, f1)
	moment := tensor.New(f1, t.classes)
	const batch = 256
	ch, h, w := ds.Spec()
	for lo := 0; lo < ds.Len(); lo += batch {
		hi := lo + batch
		if hi > ds.Len() {
			hi = ds.Len()
		}
		x := ext.Input(hi-lo, ch, h, w)
		y := ds.BatchInto(x.Data(), lo, hi)
		phi := ext.Forward(x, false) // (B, F)
		b := hi - lo
		aug := tensor.New(b, f1) // Φ̃ = [Φ | 1]
		ad, pd := aug.Data(), phi.Data()
		for r := 0; r < b; r++ {
			copy(ad[r*f1:r*f1+f], pd[r*f:(r+1)*f])
			ad[r*f1+f] = 1
		}
		oneHot := tensor.New(b, t.classes)
		for r, lab := range y {
			oneHot.Set(1, r, lab)
		}
		gram.AddInPlace(tensor.MatMulTransA(aug, aug))
		moment.AddInPlace(tensor.MatMulTransA(aug, oneHot))
	}
	out := make([]float64, dim)
	n := copy(out, gram.Data())
	copy(out[n:], moment.Data())
	return out
}

// chargeRound bills the single round's traffic and simulated time: every
// client uploads its 8-byte-per-float statistics over its C2S link after
// computing one pass over its data; the round's wall time is the slowest
// client's compute+upload (clients run concurrently in the real system).
func (t *AnalyticTrainer) chargeRound(dim int) {
	bytes := int64(8 * dim)
	maxT, compute := 0.0, 0.0
	for c := range t.clients {
		t.acct.RecordTransfer(c, c, edgenet.C2S, bytes)
		t.upload += bytes
		ct := t.cost.ComputeTime(c, t.clients[c].Data.Len())
		up := t.cost.TransferTime(c, c, edgenet.C2S, bytes)
		compute += ct
		if ct+up > maxT {
			maxT = ct + up
		}
	}
	t.acct.AddWallTime(maxT)
	t.acct.AddComputeTime(compute)
}

// solve returns W from (G + λI)·W = M by Cholesky factorization — G is
// symmetric positive definite once the ridge is added.
func (t *AnalyticTrainer) solve(gram, moment *tensor.Tensor) *tensor.Tensor {
	n := gram.Dim(0)
	cols := moment.Dim(1)
	a := gram.Clone()
	ad := a.Data()
	for i := 0; i < n; i++ {
		ad[i*n+i] += t.cfg.Ridge
	}
	// In-place Cholesky: A = L·Lᵀ, lower triangle of ad.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := ad[i*n+j]
			for p := 0; p < j; p++ {
				s -= ad[i*n+p] * ad[j*n+p]
			}
			if i == j {
				if s <= 0 {
					// λ > 0 makes this unreachable for real Grams; clamp to
					// keep the solve total rather than panicking on NaNs.
					s = t.cfg.Ridge
				}
				ad[i*n+i] = math.Sqrt(s)
			} else {
				ad[i*n+j] = s / ad[j*n+j]
			}
		}
	}
	w := moment.Clone()
	wd := w.Data()
	// Forward substitution L·Z = M, then back substitution Lᵀ·W = Z.
	for c := 0; c < cols; c++ {
		for i := 0; i < n; i++ {
			s := wd[i*cols+c]
			for p := 0; p < i; p++ {
				s -= ad[i*n+p] * wd[p*cols+c]
			}
			wd[i*cols+c] = s / ad[i*n+i]
		}
		for i := n - 1; i >= 0; i-- {
			s := wd[i*cols+c]
			for p := i + 1; p < n; p++ {
				s -= ad[p*n+i] * wd[p*cols+c]
			}
			wd[i*cols+c] = s / ad[i*n+i]
		}
	}
	return w
}

// assemble mounts the solved head behind the frozen extractor: W's first F
// rows become the Dense weights (transposed to out×in), the augmented bias
// row becomes the layer bias.
func (t *AnalyticTrainer) assemble(w *tensor.Tensor) *nn.Sequential {
	f := t.cfg.Features
	proj, _ := t.extractor()
	head := nn.NewDense(tensor.NewRNG(t.cfg.Seed+17), f, t.classes)
	hw, hb, wd := head.W.Data(), head.B.Data(), w.Data()
	for c := 0; c < t.classes; c++ {
		for i := 0; i < f; i++ {
			hw[c*f+i] = wd[i*t.classes+c]
		}
		hb[c] = wd[f*t.classes+c]
	}
	return nn.NewSequential(nn.NewFlatten(), proj, nn.NewReLU(), head)
}

// evaluate scores the solved model on the test set.
func (t *AnalyticTrainer) evaluate() float64 { return evalModel(t.global, t.test) }
