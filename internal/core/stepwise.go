package core

import (
	"fmt"
	"math"

	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// This file is the round engine. trainRound is the one round body — the
// four-process schedule of distribution, τ·AggEvery local epochs with
// migration events between, and aggregation — and both drivers are thin
// loops over it: RunRound steps it once for an orchestrator (the fleet
// manager picks each round's participants), Run loops it under its
// stopping rule. A sequence of RunRound calls is therefore governed by the
// same determinism argument as Run (DESIGN.md §5): participant choice is
// the caller's, everything downstream is a pure function of (config, seed,
// epoch, participants).

// SetParticipants forces the next rounds' participant set, overriding both
// cohort sampling and the α-fraction draw. In lazy-hydration mode only the
// named clients' replicas are materialized. A nil slice restores the
// trainer's own selection; an empty non-nil slice selects nobody.
func (t *Trainer) SetParticipants(clients []int) {
	if clients == nil {
		t.forced = nil
		return
	}
	t.forced = append([]int(nil), clients...)
}

// Round returns the number of completed global iterations.
func (t *Trainer) Round() int { return t.round }

// History returns the recorded evaluation history (shared slice; callers
// must treat it as read-only).
func (t *Trainer) History() []RoundMetrics { return t.history }

// Restore fast-forwards the trainer's epoch/round counters to a checkpoint
// without replaying training. The caller is responsible for also restoring
// the global model parameters; replica state is rebuilt by the next
// round's distribution. Restore must run before any training step.
func (t *Trainer) Restore(epoch, round int) error {
	if t.epoch != 0 || t.round != 0 {
		return fmt.Errorf("core: Restore after training started (epoch %d, round %d)", t.epoch, t.round)
	}
	if epoch < 0 || round < 0 {
		return fmt.Errorf("core: Restore to negative progress (epoch %d, round %d)", epoch, round)
	}
	t.epoch = epoch
	t.round = round
	return nil
}

// RunRound executes one complete global iteration — Model Distribution to
// the given participants, AggEvery training phases of τ local epochs with
// a migration/swap event between consecutive phases, Global Aggregation,
// and one evaluation — and returns its metrics record. participants may be
// nil to let the trainer select (cohort sample or α-fraction).
//
// RunRound is one pass of the round body Run loops over, without Run's
// stopping rule: MaxEpochs, EvalEvery and TargetAccuracy are ignored and
// the caller decides when to stop; budgets are still accounted and
// readable through Accountant. It installs no tensor pool: a caller
// stepping several trainers over one shared pool installs it once around
// the whole loop (tensor.InstallPool), and a standalone caller inherits
// the ambient pool.
func (t *Trainer) RunRound(participants []int) RoundMetrics {
	if participants != nil {
		t.SetParticipants(participants)
		defer t.SetParticipants(nil)
	}
	return t.closeRound(t.trainRound(t.epoch+t.cfg.Tau*t.cfg.AggEvery, nil))
}

// Run executes rounds until MaxEpochs, TargetAccuracy or a budget stops
// the run, and returns the result. Every run ends on a closed round: a
// stop that fires mid-round cuts the round short, and the cut round is
// aggregated, billed and evaluated like any other, so Result.Rounds
// counts it and GlobalModel is its aggregate.
func (t *Trainer) Run() *Result {
	// The run's pool also backs the tensor kernels: large matmul/conv/pool
	// calls split across the same workers (nested regions degrade to
	// inline execution, so concurrency stays bounded by cfg.Workers).
	prevPool := tensor.InstallPool(t.pool)
	defer tensor.InstallPool(prevPool)
	defer t.Close()
	cfg := t.cfg
	res := &Result{}
	atTarget := func(acc float64) bool { return cfg.TargetAccuracy > 0 && acc >= cfg.TargetAccuracy }
	for !res.ReachedTarget && !res.BudgetExhausted && t.epoch < cfg.MaxEpochs {
		end := min(t.epoch+cfg.Tau*cfg.AggEvery, cfg.MaxEpochs)
		loss := t.trainRound(end, func() (bool, bool) {
			// A mid-round evaluation point is a probe of the replicas; a
			// probe that stops the run leaves its row to the closed round.
			probe := t.epoch < end && t.epoch%cfg.EvalEvery == 0
			acc := 0.0
			if probe {
				acc = t.evaluate()
			}
			res.ReachedTarget = probe && atTarget(acc)
			res.BudgetExhausted = t.budgetExceeded()
			if res.ReachedTarget || res.BudgetExhausted {
				return true, res.ReachedTarget
			}
			if probe {
				t.recordRound(t.lastLoss, acc)
			}
			return false, false
		})
		// The round's own uploads may exhaust a budget.
		res.BudgetExhausted = t.budgetExceeded()
		last := res.ReachedTarget || res.BudgetExhausted || t.epoch >= cfg.MaxEpochs
		if last || t.epoch%cfg.EvalEvery == 0 {
			res.FinalAcc = t.closeRound(loss).TestAcc
			res.ReachedTarget = res.ReachedTarget || atTarget(res.FinalAcc)
		}
	}
	res.History = t.history
	res.FinalLoss = t.lastLoss
	res.Epochs = t.epoch
	res.Rounds = t.round
	res.Duration = telemetry.Since(t.started)
	res.Snapshot = t.acct.Snapshot()
	t.tel.EmitSnapshot()
	return res
}

// trainRound is the round body, the one place the four processes run:
// Model Distribution, phases of τ local epochs up to epoch end with a
// migration/swap event between consecutive phases, and Global
// Aggregation. stop, when non-nil, is asked after every local epoch; its
// done cuts the round short there and marks the migrator's last
// transition terminal (success: the run ended at target accuracy). The
// round always ends aggregated, so the global model is one the server
// holds. It returns the round's last training loss.
func (t *Trainer) trainRound(end int, stop func() (done, success bool)) float64 {
	if t.started.IsZero() {
		t.started = telemetry.Now()
		t.lastLoss = math.Inf(1)
		t.prevLoss = math.Inf(1)
	}
	t.applyFaults()
	sp := t.tel.Begin("distribution")
	t.distribute()
	sp.End("epoch", t.epoch)

	loss := t.lastLoss
	var prev State   // the state the pending migration was planned on
	var action []int // the pending migration, awaiting its feedback
	var done, success bool
	for t.epoch < end {
		pre := t.acct.Snapshot()
		for i := 0; i < t.cfg.Tau && t.epoch < end && !done; i++ {
			t.applyFaults()
			loss = t.localEpoch()
			t.prevLoss, t.lastLoss = t.lastLoss, loss
			if math.IsInf(t.prevLoss, 1) {
				t.prevLoss = loss
			}
			t.epoch++
			if stop != nil {
				done, success = stop()
			}
		}
		// Only a migrator reads the environment snapshot (its K-sized
		// location copy and engagement mask are O(K) to build).
		var st *State
		if t.migrator != nil {
			post := t.acct.Snapshot()
			s := t.snapshotState(post.ComputeSecs-pre.ComputeSecs, post.TotalBytes-pre.TotalBytes)
			st = &s
		}
		// The previous action's feedback lands once its τ epochs have.
		if action != nil {
			t.migrator.Feedback(&prev, action, st, done, success)
			action = nil
		}
		if done || t.epoch >= end {
			break
		}
		sp := t.tel.Begin("migration_event")
		action = t.migrate(st)
		if action != nil {
			prev = *st
		}
		sp.End("epoch", t.epoch)
	}

	sp = t.tel.Begin("aggregation")
	t.aggregate()
	sp.End("round", t.round, "epoch", t.epoch)
	t.mRounds.Inc()
	return loss
}

// closeRound evaluates a closed round and records its row: the one row per
// round the round hook sees, with the aggregated global.
func (t *Trainer) closeRound(loss float64) RoundMetrics {
	rm := t.recordRound(loss, t.evaluate())
	if t.roundHook != nil {
		t.roundHook(rm, t.global)
	}
	return rm
}

// Close releases the trainer's scheduler pool when the trainer owns it
// (Config.Pool nil). Run closes it implicitly; orchestrators driving
// RunRound call Close when the job retires. Safe to call repeatedly, and a
// no-op for shared pools.
func (t *Trainer) Close() {
	if t.ownPool {
		t.pool.Close()
	}
}
