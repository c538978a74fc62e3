// Package core implements the paper's federated-learning framework: the
// FedAvg baseline and the FedMigr family (FedProx, FedSwap, RandMigr,
// FedMigr) built around the four-process round of Sec. II-B — Model
// Distribution, Local Updating, Model Migration, Global Aggregation — with
// resource budgets, traffic/time accounting over an edgenet topology, and
// pluggable migration policies (random, LAN-aware, or the DRL agent in
// internal/drl).
//
// Model identity vs. location: the framework tracks K model replicas, one
// per client. Migration changes the *location* of a replica — the client
// whose data it trains on next — exactly the paper's semantics ("client j
// again performs local updating on the basis of the model of client i").
// A client may temporarily host several replicas (it trains each over its
// local data, paying proportional compute time), or none.
package core

import (
	"fmt"
	"time"

	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/privacy"
	"fedmigr/internal/sched"
)

// SchemeKind selects the federated-training scheme.
type SchemeKind int

// The five schemes the paper evaluates (Sec. IV-A).
const (
	// FedAvg is McMahan et al.'s baseline: aggregate at the server every
	// AggEvery epochs, no migration.
	FedAvg SchemeKind = iota
	// FedProx is FedAvg plus a proximal term μ/2‖w−w_g‖² in the local
	// objective (Li et al.).
	FedProx
	// FedSwap permutes the local models at the parameter server between
	// aggregations (Chiu et al.) — every swap costs a C2S round trip.
	FedSwap
	// RandMigr migrates every model to a uniformly random client (or keeps
	// it) between aggregations — the ablation of Sec. IV-A.
	RandMigr
	// FedMigr migrates models according to a pluggable (typically DRL)
	// policy between aggregations — the paper's contribution.
	FedMigr
)

// String implements fmt.Stringer.
func (s SchemeKind) String() string {
	switch s {
	case FedAvg:
		return "FedAvg"
	case FedProx:
		return "FedProx"
	case FedSwap:
		return "FedSwap"
	case RandMigr:
		return "RandMigr"
	case FedMigr:
		return "FedMigr"
	default:
		return fmt.Sprintf("SchemeKind(%d)", int(s))
	}
}

// Config parameterizes a federated-training run.
type Config struct {
	Scheme SchemeKind

	// ClientFraction is α, the fraction of clients selected to participate
	// in each global iteration (Sec. II-A). 0 or 1 selects every client,
	// as in the paper's experiments.
	ClientFraction float64

	// Tau is τ, the local epochs between consecutive events (migrations /
	// swaps / aggregation). Default 1, as in the paper's simulations.
	Tau int
	// AggEvery is the number of *events* per global iteration: the round
	// performs AggEvery-1 migration (or swap) events and then aggregates,
	// i.e. M = AggEvery−1 and epochs per round = τ·AggEvery. FedAvg and
	// FedProx conventionally use AggEvery = 1 (aggregate every epoch);
	// the paper's migration schemes use 50 ("agg50").
	AggEvery int

	BatchSize int
	LR        float64
	// LRSchedule optionally varies the learning rate by epoch; when nil
	// the constant LR is used.
	LRSchedule nn.LRSchedule
	Momentum   float64
	// ProxMu is the FedProx proximal coefficient μ (ignored otherwise).
	ProxMu float64

	// MaxEpochs bounds the run. An epoch is one pass of every model over
	// its current host's local data. A MaxEpochs that is not a whole
	// number of rounds ends on a short final round, aggregated like any
	// other.
	MaxEpochs int
	// EvalEvery is the test-evaluation period in epochs (default: every
	// aggregation). An evaluation point at a round's end scores the closed
	// round, after its aggregation; one inside a round probes the average
	// of the replicas.
	EvalEvery int

	// TargetAccuracy, when > 0, stops the run as soon as the evaluated
	// accuracy reaches it (paper's Table I / Fig. 7 protocol). A stop
	// inside a round closes that round: it is cut short at the stopping
	// epoch, aggregated, billed and evaluated, so the run still ends on a
	// model the server holds.
	TargetAccuracy float64
	// The budgets stop the run the same way, checked after every epoch
	// and after every aggregation: the round in progress is cut short,
	// aggregated and billed, so a run may overrun a budget by its last
	// uploads.
	//
	// ComputeBudget (seconds, 0 = unlimited) is B_c of Eq. (16).
	ComputeBudget float64
	// BandwidthBudget (bytes, 0 = unlimited) is B_b of Eq. (16).
	BandwidthBudget int64
	// TimeBudget (simulated wall seconds, 0 = unlimited) bounds completion
	// time (Fig. 9 right).
	TimeBudget float64

	// Privacy, when non-nil and enabled, sanitizes every model that leaves
	// a client (Sec. III-E2).
	Privacy *privacy.Mechanism

	// Faults, when non-nil, is a deterministic fault schedule the trainer
	// replays: scheduled crashes and transient outages drive the client
	// active mask epoch by epoch, and straggler factors slow the affected
	// clients' simulated compute through the cost model. Clients the plan
	// never mentions are untouched, so manual SetActive churn composes.
	Faults *faults.Plan

	// Workers bounds the real concurrency of the run: per-round client
	// training and the tensor kernels underneath it execute through one
	// sched.Pool of this size. 0 (the default) selects runtime.NumCPU();
	// 1 forces fully serial execution. Results are bit-for-bit identical
	// for every value — parallelism changes wall-clock only (DESIGN.md §5).
	Workers int

	// ShuffleBatches randomizes each model's mini-batch visiting order
	// every epoch, using a private RNG stream derived from (Seed, epoch,
	// model) so the order is independent of worker count and of which
	// other clients train. Default false keeps the historical in-order
	// batch sweep.
	ShuffleBatches bool

	// CohortSize, when > 0, switches the trainer to cohort mode: each round
	// a seeded, deterministic sample of CohortSize clients participates,
	// and only those clients' model replicas and optimizers are hydrated
	// (materialized) — live memory scales with the cohort, not with K,
	// which is what makes 100k simulated clients fit one machine. 0 (the
	// default) keeps every client resident, the historical behavior.
	CohortSize int
	// MinCohort is the cohort quorum: the sampler swaps fault-inactive
	// draws for active spares until at least MinCohort active clients are
	// in the cohort (or no spares remain), so cohort sampling composes
	// with faults-plan churn instead of silently training nobody.
	// Defaults to 1 in cohort mode; clamped to CohortSize.
	MinCohort int
	// Aggregators is the simulated edge-aggregator fan-out G of the
	// hierarchical upload path: participants stream to G LAN-aligned
	// gateway aggregators, each of which forwards its partial sums to the
	// cloud root. The aggregated sum is bit-identical for every G (see
	// internal/agg); G changes the traffic/wall-time accounting. The
	// accounting draws link jitter from the cost model's shared stream, so
	// with a migrator and Jitter > 0, G shifts the migrator's later cost
	// draws and with them its decisions. 0 or 1 keeps the flat
	// client→server path.
	Aggregators int
	// RoundOffset shifts the cohort sampler's round-derived RNG streams —
	// set by checkpoint resume so a resumed run draws the same cohorts the
	// uninterrupted run would have.
	RoundOffset int

	// LazyHydration forces cohort-style replica hydration without a cohort
	// sampler: replicas exist only for the clients SetParticipants names
	// each round. The fleet manager sets it so N jobs sharing one client
	// pool each keep O(demand) live replicas, never O(K).
	LazyHydration bool
	// Pool, when non-nil, is an externally owned scheduler pool the trainer
	// uses instead of creating its own; the owner closes it. The fleet
	// manager hands every job's trainer the same pool so concurrent jobs
	// share one set of workers instead of oversubscribing the machine.
	Pool *sched.Pool

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Tau <= 0 {
		c.Tau = 1
	}
	if c.AggEvery <= 0 {
		c.AggEvery = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 100
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = c.Tau * c.AggEvery
	}
	if c.CohortSize > 0 {
		if c.MinCohort <= 0 {
			c.MinCohort = 1
		}
		if c.MinCohort > c.CohortSize {
			c.MinCohort = c.CohortSize
		}
	}
	return c
}

// Validate reports configuration errors that withDefaults cannot repair.
func (c Config) Validate() error {
	if c.LR < 0 {
		return fmt.Errorf("core: negative learning rate %v", c.LR)
	}
	if c.ClientFraction < 0 || c.ClientFraction > 1 {
		return fmt.Errorf("core: client fraction %v outside [0,1]", c.ClientFraction)
	}
	if c.TargetAccuracy < 0 || c.TargetAccuracy > 1 {
		return fmt.Errorf("core: target accuracy %v outside [0,1]", c.TargetAccuracy)
	}
	if c.Scheme == FedProx && c.ProxMu < 0 {
		return fmt.Errorf("core: negative FedProx mu %v", c.ProxMu)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	if c.CohortSize < 0 {
		return fmt.Errorf("core: negative cohort size %d", c.CohortSize)
	}
	if c.Aggregators < 0 {
		return fmt.Errorf("core: negative aggregator fan-out %d", c.Aggregators)
	}
	return nil
}

// State is the environment snapshot handed to migration policies — the
// paper's s_t = (t, w_t, F_t, D_t, R_t, G_t) of Sec. III-C.
type State struct {
	// Epoch is the training epoch index t.
	Epoch int
	// Loss is F_t, the current average training loss across models.
	Loss float64
	// PrevLoss is F_{t−1} (equals Loss at t=0).
	PrevLoss float64
	// D is the K×K pairwise EMD matrix between the *effective* label
	// distributions currently seen by each model (D_t).
	D [][]float64
	// Locations maps model → hosting client.
	Locations []int
	// Active flags which clients participate (join/leave dynamics).
	Active []bool
	// CostSeconds[i][j] is the transfer time of the current model between
	// clients i and j (0 on the diagonal).
	CostSeconds [][]float64
	// ComputeUsed / ComputeBudget and BytesUsed / BytesBudget are R_t and
	// G_t; budgets are 0 when unlimited.
	ComputeUsed   float64
	ComputeBudget float64
	BytesUsed     int64
	BytesBudget   int64
	// EpochComputeSeconds and EpochBytes are the resources consumed by the
	// most recent epoch (the c^t, b^t of Eq. 17).
	EpochComputeSeconds float64
	EpochBytes          int64
}

// K returns the number of clients.
func (s *State) K() int { return len(s.Locations) }

// RemainingComputeFrac returns the remaining compute budget fraction
// (1 when unlimited).
func (s *State) RemainingComputeFrac() float64 {
	if s.ComputeBudget <= 0 {
		return 1
	}
	f := 1 - s.ComputeUsed/s.ComputeBudget
	if f < 0 {
		return 0
	}
	return f
}

// RemainingBytesFrac returns the remaining bandwidth budget fraction
// (1 when unlimited).
func (s *State) RemainingBytesFrac() float64 {
	if s.BytesBudget <= 0 {
		return 1
	}
	f := 1 - float64(s.BytesUsed)/float64(s.BytesBudget)
	if f < 0 {
		return 0
	}
	return f
}

// Migrator plans model migrations and (optionally) learns from feedback.
type Migrator interface {
	// Plan returns dest[m] = client to host model m next; dest[m] ==
	// s.Locations[m] keeps it in place. Destinations must be active
	// clients.
	Plan(s *State) []int
	// Feedback reports the transition that followed a Plan. done marks the
	// end of a run; success whether it ended within budget at target
	// accuracy (Eq. 18's ±C).
	Feedback(prev *State, action []int, next *State, done, success bool)
}

// RoundMetrics is one evaluation record of a training run. It is the
// same schema the telemetry JSONL "round" events carry, so traces and
// in-memory history stay interchangeable.
type RoundMetrics struct {
	Epoch     int
	Round     int
	TrainLoss float64
	TestAcc   float64
	// Duration is the real (not simulated) wall-clock time elapsed since
	// the run started when this record was taken.
	Duration time.Duration
	Snapshot edgenet.Snapshot
}

// Result summarizes a completed run.
type Result struct {
	History []RoundMetrics
	// Final metrics.
	FinalLoss float64
	FinalAcc  float64
	Epochs    int
	// Rounds is the number of completed global iterations (aggregations).
	Rounds int
	// Duration is the real wall-clock time the run took (the simulated
	// completion time lives in Snapshot.WallSeconds).
	Duration time.Duration
	// ReachedTarget reports whether TargetAccuracy (if set) was reached.
	ReachedTarget bool
	// BudgetExhausted reports whether a budget stop fired first.
	BudgetExhausted bool
	Snapshot        edgenet.Snapshot
}

// BestAcc returns the best evaluated accuracy of the run.
func (r *Result) BestAcc() float64 {
	best := 0.0
	for _, m := range r.History {
		if m.TestAcc > best {
			best = m.TestAcc
		}
	}
	return best
}

// EpochsToAccuracy returns the first epoch whose evaluation reached acc,
// or -1 if never (Fig. 7's series).
func (r *Result) EpochsToAccuracy(acc float64) int {
	for _, m := range r.History {
		if m.TestAcc >= acc {
			return m.Epoch
		}
	}
	return -1
}

// Client couples a participant's local dataset with its identity.
type Client struct {
	ID   int
	Data *data.Dataset
}

// ModelFactory builds a fresh, identically-architected model. Every
// factory invocation must produce the same architecture (weights may
// differ; they are always overwritten).
type ModelFactory func() *nn.Sequential
