package drl

import (
	"fmt"
	"math"

	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// DDPGConfig parameterizes the agent.
type DDPGConfig struct {
	// StateDim and ActionDim fix the network geometry. ActionDim equals
	// the number of clients K (a distribution over destinations).
	StateDim  int
	ActionDim int
	// Hidden is the MLP hidden width (default 64).
	Hidden int
	// Gamma is the discount factor γ (default 0.9).
	Gamma float64
	// TauSoft is the target-network soft-update rate (default 0.01).
	TauSoft float64
	// ActorLR and CriticLR are Adam learning rates (defaults 1e-3, 2e-3).
	ActorLR  float64
	CriticLR float64
	// BatchSize is the replay minibatch (default 16).
	BatchSize int
	// BufferCap bounds the replay buffer (default 2048).
	BufferCap int
	// EpsilonPER and XiPER are the ε and ξ of Eqs. (25)–(26)
	// (defaults 0.6, 0.6).
	EpsilonPER float64
	XiPER      float64
	Seed       int64
}

func (c DDPGConfig) withDefaults() DDPGConfig {
	if c.Hidden <= 0 {
		c.Hidden = 64
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.9
	}
	if c.TauSoft <= 0 {
		c.TauSoft = 0.01
	}
	if c.ActorLR <= 0 {
		c.ActorLR = 1e-3
	}
	if c.CriticLR <= 0 {
		c.CriticLR = 2e-3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 2048
	}
	// 0 selects the default; a negative value explicitly disables the
	// feature (ε→0 ignores TD error, ξ→0 yields uniform replay).
	switch {
	case c.EpsilonPER == 0:
		c.EpsilonPER = 0.6
	case c.EpsilonPER < 0:
		c.EpsilonPER = 0
	}
	switch {
	case c.XiPER == 0:
		c.XiPER = 0.6
	case c.XiPER < 0:
		c.XiPER = 0
	}
	return c
}

// DDPG is the deep deterministic policy gradient agent of Alg. 1: actor
// π(s|θ) mapping a state to a destination distribution, critic Q(s,a|ψ),
// and slowly-updated target clones of both.
//
// Between calls every actor and critic gradient accumulator is zero: they
// start zero, Adam's Step clears what it consumes, and the ∇aQ probe of
// TrainStep runs through nn.Sequential.InputGrad, which accumulates
// nothing. So the agent never calls ZeroGrad.
type DDPG struct {
	cfg DDPGConfig

	actor, actorTarget   *nn.Sequential
	critic, criticTarget *nn.Sequential
	actorOpt, criticOpt  *nn.Adam
	Buffer               *PERBuffer
	rng                  *tensor.RNG

	steps int

	// Agent-owned network inputs and output gradients, so a step builds no
	// tensors: the actor's (1, StateDim) input, the critic's
	// (1, StateDim+ActionDim) input, the target nets' (BatchSize, ·)
	// minibatch inputs, dL/dQ and dL/dπ; and the minibatch the replay
	// buffer samples into.
	stateIn, criticIn, nextIn, targetIn *tensor.Tensor
	gradQ, gradA                        *tensor.Tensor
	idx                                 []int
	batch                               []Transition
	isw                                 []float64
}

// NewDDPG builds an agent for the given dimensions.
func NewDDPG(cfg DDPGConfig) *DDPG {
	cfg = cfg.withDefaults()
	if cfg.StateDim <= 0 || cfg.ActionDim <= 0 {
		panic(fmt.Sprintf("drl: invalid dims state=%d action=%d", cfg.StateDim, cfg.ActionDim))
	}
	g := tensor.NewRNG(cfg.Seed)
	mkActor := func(r *tensor.RNG) *nn.Sequential {
		return nn.NewSequential(
			nn.NewDense(r, cfg.StateDim, cfg.Hidden), nn.NewReLU(),
			nn.NewDense(r, cfg.Hidden, cfg.Hidden), nn.NewReLU(),
			nn.NewDense(r, cfg.Hidden, cfg.ActionDim),
			nn.NewSoftmaxLayer(),
		)
	}
	mkCritic := func(r *tensor.RNG) *nn.Sequential {
		return nn.NewSequential(
			nn.NewDense(r, cfg.StateDim+cfg.ActionDim, cfg.Hidden), nn.NewReLU(),
			nn.NewDense(r, cfg.Hidden, cfg.Hidden), nn.NewReLU(),
			nn.NewDense(r, cfg.Hidden, 1),
		)
	}
	a := mkActor(g.Fork())
	c := mkCritic(g.Fork())
	at := mkActor(g.Fork())
	ct := mkCritic(g.Fork())
	at.CopyParamsFrom(a)
	ct.CopyParamsFrom(c)
	sa := cfg.StateDim + cfg.ActionDim
	return &DDPG{
		cfg:          cfg,
		actor:        a,
		actorTarget:  at,
		critic:       c,
		criticTarget: ct,
		actorOpt:     nn.NewAdam(cfg.ActorLR),
		criticOpt:    nn.NewAdam(cfg.CriticLR),
		Buffer:       NewPERBuffer(cfg.BufferCap, cfg.EpsilonPER, cfg.XiPER, cfg.Seed+1),
		rng:          g.Fork(),
		stateIn:      tensor.New(1, cfg.StateDim),
		criticIn:     tensor.New(1, sa),
		nextIn:       tensor.New(cfg.BatchSize, cfg.StateDim),
		targetIn:     tensor.New(cfg.BatchSize, sa),
		gradQ:        tensor.New(1, 1),
		gradA:        tensor.New(1, cfg.ActionDim),
		idx:          make([]int, cfg.BatchSize),
		batch:        make([]Transition, cfg.BatchSize),
		isw:          make([]float64, cfg.BatchSize),
	}
}

// Steps returns the number of completed training steps.
func (d *DDPG) Steps() int { return d.steps }

// Act returns the actor's deterministic action π(s): a probability
// distribution over the ActionDim destinations.
func (d *DDPG) Act(state []float64) []float64 {
	out := d.actor.Forward(d.actorInput(state), false)
	return append([]float64(nil), out.Data()...)
}

// Q evaluates the critic for a state-action pair.
func (d *DDPG) Q(state, action []float64) float64 {
	return d.critic.Forward(d.criticInput(state, action), false).Data()[0]
}

// actorInput copies state into the actor's input buffer.
func (d *DDPG) actorInput(state []float64) *tensor.Tensor {
	if len(state) != d.cfg.StateDim {
		panic(fmt.Sprintf("drl: state dim %d, want %d", len(state), d.cfg.StateDim))
	}
	copy(d.stateIn.Data(), state)
	return d.stateIn
}

// criticInput copies (state ‖ action) into the critic's input buffer.
func (d *DDPG) criticInput(state, action []float64) *tensor.Tensor {
	if len(state) != d.cfg.StateDim || len(action) != d.cfg.ActionDim {
		panic(fmt.Sprintf("drl: dims state=%d action=%d, want %d/%d",
			len(state), len(action), d.cfg.StateDim, d.cfg.ActionDim))
	}
	v := d.criticIn.Data()
	copy(v, state)
	copy(v[d.cfg.StateDim:], action)
	return d.criticIn
}

// Observe stores a transition in the replay buffer.
func (d *DDPG) Observe(t Transition) {
	if len(t.State) != d.cfg.StateDim || len(t.Action) != d.cfg.ActionDim {
		panic("drl: Observe dimension mismatch")
	}
	d.Buffer.Add(t)
}

// TrainStep performs one Actor-Critic learning pass of Alg. 1 (lines
// 10–20): sample prioritized transitions, regress the critic toward the
// target value h (Eq. 21), ascend the actor along ∇aQ·∇θπ (Eq. 20), update
// priorities (Eq. 25) and soft-update the targets. It returns the mean
// absolute TD error of the batch (0 when the buffer is still empty).
func (d *DDPG) TrainStep() float64 {
	idx, batch, isw := d.idx, d.batch, d.isw
	if !d.Buffer.Sample(idx, batch, isw) {
		return 0
	}
	q2 := d.targetValues(batch)
	tdSum := 0.0

	for s, z := range batch {
		w := isw[s]
		// Target value h_t = r + γ·Q'(s', π'(s')) — Eq. (21).
		h := z.Reward
		if !z.Done {
			h += d.cfg.Gamma * q2[s]
		}
		// Critic pass: TD error φ_z = h − Q(s,a) — Eq. (23).
		q := d.critic.Forward(d.criticInput(z.State, z.Action), true).Data()[0]
		td := h - q
		tdSum += math.Abs(td)
		// d/dQ of ½(Q−h)² is (Q−h); scale by the IS weight μ_z (Eq. 27).
		d.gradQ.Data()[0] = w * (q - h)
		d.critic.Backward(d.gradQ)
		d.criticOpt.Step(d.critic)

		// ∇aQ at a = π(s) through the *updated* critic — Eq. (24). The
		// probe reads the critic and touches no accumulator; the actor's
		// forward caches stay paired with its Backward below.
		a := d.actor.Forward(d.actorInput(z.State), true)
		d.critic.Forward(d.criticInput(z.State, a.Data()), true)
		d.gradQ.Data()[0] = 1
		gradA := d.critic.InputGrad(d.gradQ).Data()[d.cfg.StateDim:]
		gradNorm := 0.0
		for _, g := range gradA {
			gradNorm += g * g
		}
		gradNorm = math.Sqrt(gradNorm)
		// Ascend: actor loss = −Q, so backprop −w·∇aQ into the actor (Eq. 28).
		ga := d.gradA.Data()
		for j, g := range gradA {
			ga[j] = -w * g
		}
		d.actor.Backward(d.gradA)
		d.actorOpt.Step(d.actor)

		// Priority update — Eq. (25).
		d.Buffer.UpdatePriority(idx[s], d.Buffer.Priority(td, gradNorm))
	}

	d.softUpdate(d.actorTarget, d.actor)
	d.softUpdate(d.criticTarget, d.critic)
	d.steps++
	return tdSum / float64(len(batch))
}

// targetValues returns Q'(s', π'(s')) for every transition of the
// minibatch, row s for batch[s], from one forward pass through each target
// net. The targets change only in softUpdate, after the minibatch, and
// every kernel computes each output row on its own in a fixed order, so
// row s has exactly the bits a one-row pass over batch[s] gives. Done rows
// are computed on zeros and ignored by the caller. The result is owned by
// the target critic.
func (d *DDPG) targetValues(batch []Transition) []float64 {
	sd, ad := d.cfg.StateDim, d.cfg.ActionDim
	nx := d.nextIn.Data()
	for s, z := range batch {
		row := nx[s*sd : (s+1)*sd]
		switch {
		case z.Done:
			clear(row)
		case len(z.NextState) != sd:
			panic(fmt.Sprintf("drl: next state dim %d, want %d", len(z.NextState), sd))
		default:
			copy(row, z.NextState)
		}
	}
	na := d.actorTarget.Forward(d.nextIn, false).Data()
	tx := d.targetIn.Data()
	for s := range batch {
		row := tx[s*(sd+ad) : (s+1)*(sd+ad)]
		copy(row, nx[s*sd:(s+1)*sd])
		copy(row[sd:], na[s*ad:(s+1)*ad])
	}
	return d.criticTarget.Forward(d.targetIn, false).Data()
}

// softUpdate moves target parameters toward the online network:
// θ' ← τ·θ + (1−τ)·θ'.
func (d *DDPG) softUpdate(target, online *nn.Sequential) {
	tp, _ := target.Params()
	op, _ := online.Params()
	tau := d.cfg.TauSoft
	for i, t := range tp {
		td, od := t.Data(), op[i].Data()
		for j := range td {
			td[j] = tau*od[j] + (1-tau)*td[j]
		}
	}
}

// ImitateActor performs one supervised (behavioral-cloning) step pushing
// the actor's distribution toward the demonstrated action — used during
// offline pre-training when ρ-greedy exploration executes an FLMM-derived
// action (Sec. III-D1). The demonstration becomes a cross-entropy target.
func (d *DDPG) ImitateActor(state []float64, action int) {
	if action < 0 || action >= d.cfg.ActionDim {
		panic(fmt.Sprintf("drl: imitation action %d out of range", action))
	}
	probs := d.actor.Forward(d.actorInput(state), true)
	// d(CE)/d(probs) for a softmax output consumed directly: −1/p at the
	// demonstrated class. Backprop through the actor's own softmax layer.
	grad := d.gradA.Data()
	clear(grad)
	pa := probs.Data()[action]
	if pa < 1e-9 {
		pa = 1e-9
	}
	grad[action] = -1 / pa
	d.actor.Backward(d.gradA)
	d.actorOpt.Step(d.actor)
}

// TargetDistance returns the L2 distance between online and target actor
// parameters (diagnostics; shrinks as training stabilizes).
func (d *DDPG) TargetDistance() float64 {
	return d.actor.ParamVector().Sub(d.actorTarget.ParamVector()).Norm2()
}
