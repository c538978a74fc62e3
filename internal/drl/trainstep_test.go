package drl

import (
	"fmt"
	"math"
	"testing"

	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/tensor"
)

// refProbs is PERBuffer.probs as it was before the buffer kept its table:
// a fresh Eq. (26) slice per call. Callers hold b.mu.
func (b *PERBuffer) refProbs() []float64 {
	ps := make([]float64, len(b.prio))
	sum := 0.0
	for i, p := range b.prio {
		v := math.Pow(p, b.Xi)
		ps[i] = v
		sum += v
	}
	if sum <= 0 {
		for i := range ps {
			ps[i] = 1 / float64(len(ps))
		}
		return ps
	}
	for i := range ps {
		ps[i] /= sum
	}
	return ps
}

// refSample is PERBuffer.Sample as it was before it filled caller-owned
// slices: the reference TestPERSampleMatchesReference holds Sample to.
func (b *PERBuffer) refSample(n int) (idx []int, ts []Transition, isw []float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) == 0 {
		return nil, nil, nil
	}
	ps := b.refProbs()
	idx = make([]int, n)
	ts = make([]Transition, n)
	isw = make([]float64, n)
	maxW := 0.0
	for s := 0; s < n; s++ {
		r := b.rng.Float64()
		acc := 0.0
		chosen := len(ps) - 1
		for i, p := range ps {
			acc += p
			if r < acc {
				chosen = i
				break
			}
		}
		idx[s] = chosen
		ts[s] = b.items[chosen]
		w := math.Pow(float64(len(b.items))*ps[chosen], -b.Xi)
		isw[s] = w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for s := range isw {
			isw[s] /= maxW
		}
	}
	return idx, ts, isw
}

// refTrainStep is DDPG.TrainStep as it was before the target passes were
// batched, the critic probe went input-only and the minibatch moved into
// agent-owned slices: one-row target passes per sample, a second actor
// forward, ZeroGrad around every backward, a freshly allocated sample. It
// is the reference TestTrainStepMatchesReference holds TrainStep to.
func (d *DDPG) refTrainStep() float64 {
	if d.Buffer.Len() == 0 {
		return 0
	}
	idx, batch, isw := d.Buffer.refSample(d.cfg.BatchSize)
	tdSum := 0.0

	for s, z := range batch {
		w := isw[s]
		// Target value h_t = r + γ·Q'(s', π'(s')) — Eq. (21).
		h := z.Reward
		if !z.Done {
			nx := tensor.FromSlice(append([]float64(nil), z.NextState...), 1, d.cfg.StateDim)
			na := d.actorTarget.Forward(nx, false)
			q2 := d.criticTarget.Forward(d.refConcat(z.NextState, na.Data()), false).Data()[0]
			h += d.cfg.Gamma * q2
		}
		// Critic pass: TD error φ_z = h − Q(s,a) — Eq. (23).
		in := d.refConcat(z.State, z.Action)
		d.critic.ZeroGrad()
		q := d.critic.Forward(in, true).Data()[0]
		td := h - q
		tdSum += math.Abs(td)
		// d/dQ of ½(Q−h)² is (Q−h); scale by the IS weight μ_z (Eq. 27).
		gout := tensor.FromSlice([]float64{w * (q - h)}, 1, 1)
		d.critic.Backward(gout)
		d.criticOpt.Step(d.critic)

		// ∇aQ at a = π(s) through the *updated* critic — Eq. (24).
		sx := tensor.FromSlice(append([]float64(nil), z.State...), 1, d.cfg.StateDim)
		a := d.actor.Forward(sx, true)
		d.critic.ZeroGrad()
		d.critic.Forward(d.refConcat(z.State, a.Data()), true)
		one := tensor.FromSlice([]float64{1}, 1, 1)
		d.critic.Backward(one)
		dIn := d.critic.InputGrad(one)
		d.critic.ZeroGrad() // discard critic grads from the probe pass
		gradA := dIn.Data()[d.cfg.StateDim:]
		gradNorm := 0.0
		for _, g := range gradA {
			gradNorm += g * g
		}
		gradNorm = math.Sqrt(gradNorm)
		// Ascend: actor loss = −Q, so backprop −w·∇aQ into the actor (Eq. 28).
		ga := tensor.New(1, d.cfg.ActionDim)
		for j, g := range gradA {
			ga.Data()[j] = -w * g
		}
		d.actor.ZeroGrad()
		// Re-run forward to refresh caches (critic probe reused them safely,
		// but keep the pairing explicit).
		d.actor.Forward(sx, true)
		d.actor.Backward(ga)
		d.actorOpt.Step(d.actor)

		// Priority update — Eq. (25).
		d.Buffer.UpdatePriority(idx[s], d.Buffer.Priority(td, gradNorm))
	}

	d.softUpdate(d.actorTarget, d.actor)
	d.softUpdate(d.criticTarget, d.critic)
	d.steps++
	return tdSum / float64(len(batch))
}

func (d *DDPG) refConcat(state, action []float64) *tensor.Tensor {
	if len(state) != d.cfg.StateDim || len(action) != d.cfg.ActionDim {
		panic(fmt.Sprintf("drl: dims state=%d action=%d, want %d/%d",
			len(state), len(action), d.cfg.StateDim, d.cfg.ActionDim))
	}
	v := make([]float64, d.cfg.StateDim+d.cfg.ActionDim)
	copy(v, state)
	copy(v[d.cfg.StateDim:], action)
	return tensor.FromSlice(v, 1, len(v))
}

// refImitateActor is ImitateActor as it was, with its ZeroGrad and
// per-call tensors.
func (d *DDPG) refImitateActor(state []float64, action int) {
	sx := tensor.FromSlice(append([]float64(nil), state...), 1, d.cfg.StateDim)
	d.actor.ZeroGrad()
	probs := d.actor.Forward(sx, true)
	grad := tensor.New(1, d.cfg.ActionDim)
	pa := probs.Data()[action]
	if pa < 1e-9 {
		pa = 1e-9
	}
	grad.Data()[action] = -1 / pa
	d.actor.Backward(grad)
	d.actorOpt.Step(d.actor)
}

// randomTransition draws a transition; every fourth one is terminal with
// no next state at all.
func randomTransition(g *tensor.RNG, cfg DDPGConfig, i int) Transition {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = g.NormFloat64()
		}
		return v
	}
	a := make([]float64, cfg.ActionDim)
	a[g.Intn(cfg.ActionDim)] = 1
	t := Transition{State: vec(cfg.StateDim), Action: a, Reward: g.NormFloat64()}
	if i%4 == 3 {
		t.Done = true
	} else {
		t.NextState = vec(cfg.StateDim)
	}
	return t
}

func requireSameModel(t *testing.T, what string, got, want *nn.Sequential) {
	t.Helper()
	gp, _ := got.Params()
	wp, _ := want.Params()
	for i, p := range gp {
		for j, v := range p.Data() {
			if math.Float64bits(v) != math.Float64bits(wp[i].Data()[j]) {
				t.Fatalf("%s: parameter %d[%d] = %v, reference %v", what, i, j, v, wp[i].Data()[j])
			}
		}
	}
}

// TestTrainStepMatchesReference runs TrainStep beside the reference on two
// agents built from one seed, over a small ring buffer that keeps being
// overwritten, with terminal transitions, behavioural-cloning steps and
// action queries in between, at minibatch 1 and 16, serially and with a
// worker pool installed (which splits the batched target GEMMs). Every
// step's mean |TD| must agree bitwise, and after 50 steps so must the
// actor, the critic, both target nets and every replay priority.
func TestTrainStepMatchesReference(t *testing.T) {
	for _, batch := range []int{1, 16} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("batch%d/workers%d", batch, workers), func(t *testing.T) {
				if workers > 1 {
					pool := sched.New(workers)
					defer pool.Close()
					defer tensor.InstallPool(tensor.InstallPool(pool))
				}
				cfg := DDPGConfig{StateDim: StateDim(4), ActionDim: 4, BatchSize: batch, BufferCap: 24, Seed: 31}
				got, want := NewDDPG(cfg), NewDDPG(cfg)
				g := tensor.NewRNG(32)
				n := 0
				observe := func(k int) {
					for ; k > 0; k-- {
						tr := randomTransition(g, cfg, n)
						got.Observe(tr)
						want.Observe(tr)
						n++
					}
				}
				observe(20)
				for step := 0; step < 50; step++ {
					observe(3) // the ring wraps from step 2 on
					if step%5 == 0 {
						s := randomTransition(g, cfg, 0).State
						got.ImitateActor(s, step%cfg.ActionDim)
						want.refImitateActor(s, step%cfg.ActionDim)
						got.Act(s)
					}
					td, ref := got.TrainStep(), want.refTrainStep()
					if math.Float64bits(td) != math.Float64bits(ref) {
						t.Fatalf("step %d: mean |TD| %v, reference %v", step, td, ref)
					}
				}
				requireSameModel(t, "actor", got.actor, want.actor)
				requireSameModel(t, "critic", got.critic, want.critic)
				requireSameModel(t, "actor target", got.actorTarget, want.actorTarget)
				requireSameModel(t, "critic target", got.criticTarget, want.criticTarget)
				for i, p := range got.Buffer.prio {
					if math.Float64bits(p) != math.Float64bits(want.Buffer.prio[i]) {
						t.Fatalf("priority %d = %v, reference %v", i, p, want.Buffer.prio[i])
					}
				}
				if got.Buffer.maxP != want.Buffer.maxP {
					t.Fatalf("max priority %v, reference %v", got.Buffer.maxP, want.Buffer.maxP)
				}
			})
		}
	}
}

// TestPERSampleMatchesReference draws from two buffers built alike, one
// through Sample into reused slices and one through the reference, while
// the ring fills, wraps and has its priorities rewritten, at ξ = 0.6 and
// at ξ = 0 (uniform): every index, transition and weight must agree bit
// for bit.
func TestPERSampleMatchesReference(t *testing.T) {
	for _, xi := range []float64{0.6, 0} {
		got, want := NewPERBuffer(12, 0.6, xi, 51), NewPERBuffer(12, 0.6, xi, 51)
		g := tensor.NewRNG(52)
		idx, ts, isw := make([]int, 5), make([]Transition, 5), make([]float64, 5)
		for step := 0; step < 40; step++ {
			tr := Transition{State: []float64{float64(step)}, Reward: g.NormFloat64()}
			got.Add(tr)
			want.Add(tr)
			ok := got.Sample(idx, ts, isw)
			wIdx, wTs, wIsw := want.refSample(len(idx))
			if !ok {
				t.Fatalf("ξ=%v step %d: Sample reported an empty buffer", xi, step)
			}
			for s := range idx {
				if idx[s] != wIdx[s] || &ts[s].State[0] != &wTs[s].State[0] ||
					math.Float64bits(isw[s]) != math.Float64bits(wIsw[s]) {
					t.Fatalf("ξ=%v step %d draw %d: (%d, %v, %v), reference (%d, %v, %v)",
						xi, step, s, idx[s], ts[s].State, isw[s], wIdx[s], wTs[s].State, wIsw[s])
				}
				p := got.Priority(g.NormFloat64(), g.NormFloat64()*float64(step))
				got.UpdatePriority(idx[s], p)
				want.UpdatePriority(idx[s], p)
			}
		}
	}
}

// TestTrainStepAllocations: once warmed, a training step touches the heap
// zero times; the minibatch, the probability table and every network
// buffer are reused.
func TestTrainStepAllocations(t *testing.T) {
	if tensor.Pool() != nil {
		t.Skip("a worker pool is installed: parallel kernels allocate their closures")
	}
	cfg := DDPGConfig{StateDim: StateDim(10), ActionDim: 10, BatchSize: 16, Seed: 41}
	d := NewDDPG(cfg)
	g := tensor.NewRNG(42)
	for i := 0; i < 64; i++ {
		d.Observe(randomTransition(g, cfg, i))
	}
	d.TrainStep()
	if n := testing.AllocsPerRun(5, func() { d.TrainStep() }); n != 0 {
		t.Fatalf("a warmed TrainStep allocates %v times, want 0", n)
	}
}
