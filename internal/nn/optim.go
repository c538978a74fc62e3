package nn

import (
	"fmt"
	"math"

	"fedmigr/internal/tensor"
)

// SGD is stochastic gradient descent with optional momentum and weight
// decay — the optimizer FedAvg-family schemes run on every client.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	vel map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr, vel: make(map[*tensor.Tensor]*tensor.Tensor)} }

// NewSGDMomentum returns an SGD optimizer with momentum.
func NewSGDMomentum(lr, momentum float64) *SGD {
	s := NewSGD(lr)
	s.Momentum = momentum
	return s
}

// Step applies one update to the model's parameters from its accumulated
// gradients and clears the gradients, in one pass over each (parameter,
// gradient) pair (tensor.SGDStep).
//
// Gradients are +0 between optimizer steps: NewSequential's layers start
// them at +0, Backward adds into them, and Step (like Adam's) leaves every
// one +0 again. Training loops therefore run Forward, Backward, Step with
// no ZeroGrad; a caller that runs Backward without a Step must clear the
// gradients itself. TestGradientsZeroBetweenSteps pins the invariant.
func (s *SGD) Step(m *Sequential) {
	ps, gs := m.Params()
	for i, p := range ps {
		var v *tensor.Tensor
		if s.Momentum != 0 {
			var ok bool
			if v, ok = s.vel[p]; !ok {
				v = tensor.New(p.Shape()...)
				s.vel[p] = v
			}
		}
		tensor.SGDStep(p, gs[i], v, s.LR, s.Momentum, s.WeightDecay)
	}
}

// ExportVelocity returns the optimizer's momentum buffers for m flattened
// in parameter order — the serializable optimizer state a migrating
// TrainState carries. Parameters that have no buffer yet (or a zero-
// momentum optimizer) export zeros; the result is nil when no buffer
// exists at all, so momentum-free state costs nothing on the wire.
func (s *SGD) ExportVelocity(m *Sequential) []float64 {
	ps, _ := m.Params()
	total, have := 0, false
	for _, p := range ps {
		total += p.Size()
		if _, ok := s.vel[p]; ok {
			have = true
		}
	}
	if !have {
		return nil
	}
	out := make([]float64, 0, total)
	for _, p := range ps {
		if v, ok := s.vel[p]; ok {
			out = append(out, v.Data()...)
		} else {
			out = append(out, make([]float64, p.Size())...)
		}
	}
	return out
}

// ImportVelocity installs momentum buffers for m from a flat slice in
// parameter order (the inverse of ExportVelocity). A nil slice clears the
// buffers; any other length than the model's total parameter count is an
// error. The buffers are re-keyed onto m's parameter tensors, so the state
// transfers onto a freshly materialized replica on another node.
func (s *SGD) ImportVelocity(m *Sequential, data []float64) error {
	if s.vel == nil {
		s.vel = make(map[*tensor.Tensor]*tensor.Tensor)
	}
	ps, _ := m.Params()
	if data == nil {
		for _, p := range ps {
			delete(s.vel, p)
		}
		return nil
	}
	total := 0
	for _, p := range ps {
		total += p.Size()
	}
	if len(data) != total {
		return fmt.Errorf("nn: velocity length %d does not match model parameter count %d", len(data), total)
	}
	off := 0
	for _, p := range ps {
		v, ok := s.vel[p]
		if !ok {
			v = tensor.New(p.Shape()...)
			s.vel[p] = v
		}
		copy(v.Data(), data[off:off+p.Size()])
		off += p.Size()
	}
	return nil
}

// Adam is the Adam optimizer, used to train the DDPG actor and critic.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t  int
	m1 map[*tensor.Tensor]*tensor.Tensor
	m2 map[*tensor.Tensor]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m1: make(map[*tensor.Tensor]*tensor.Tensor),
		m2: make(map[*tensor.Tensor]*tensor.Tensor),
	}
}

// minNormal is the smallest positive normal float64. Adam stores a moment
// below it in magnitude as exactly 0.
const minNormal = 0x1p-1022

// Step applies one Adam update from the model's accumulated gradients,
// then clears the gradients (in the same pass).
//
// Moments never go subnormal. A weight whose gradient is exactly 0 step
// after step (a ReLU that stopped firing) has its first moment shrink by
// β₁ each step; after ~6.7k steps it reaches the subnormal range, where
// 0.9·k·2⁻¹⁰⁷⁴ rounds back to k·2⁻¹⁰⁷⁴ for k ≤ 4 and it stays for good —
// and every subnormal operand costs the FPU a microcode assist, enough to
// make Adam most of a DDPG step. Step therefore stores a moment below
// 2⁻¹⁰²² in magnitude as 0. No parameter moves differently for it: with
// a subnormal m₁, c₁ ≥ 1−β₁ = 0.1 and √v̂+ε ≥ ε = 1e-8, the update the old
// moment gave is below LR·10·2⁻¹⁰²²/1e-8 ≈ 5e-302 (for LR ≤ 2e-3), less
// than half an ulp of any |p| ≥ 1e-284, so p − upd == p as p − 0 == p; a
// subnormal m₂ leaves √v̂ far below half an ulp of ε, so the denominator
// is ε either way; and once a normal gradient arrives, β₁·m₁ < 2⁻¹⁰²² is
// below half an ulp of (1−β₁)·g, so the leftover vanishes in the sum.
// Moments are not persisted (drl/persist.go writes parameters only), so
// no stored format changes. TestAdamMatchesReference pins all of this
// against the unflushed loop.
func (a *Adam) Step(m *Sequential) {
	a.t++
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Eps
	omb1, omb2 := 1-b1, 1-b2
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	ps, gs := m.Params()
	for i, p := range ps {
		m1, ok := a.m1[p]
		if !ok {
			m1 = tensor.New(p.Shape()...)
			a.m1[p] = m1
			a.m2[p] = tensor.New(p.Shape()...)
		}
		m2 := a.m2[p]
		pd, gd, m1d, m2d := p.Data(), gs[i].Data(), m1.Data(), m2.Data()
		for j, gv := range gd {
			gd[j] = 0
			mv := b1*m1d[j] + omb1*gv
			if math.Abs(mv) < minNormal { // one compare: the sign is a coin flip
				mv = 0
			}
			vv := b2*m2d[j] + omb2*gv*gv
			if vv < minNormal {
				vv = 0
			}
			m1d[j], m2d[j] = mv, vv
			pd[j] -= lr * (mv / c1) / (math.Sqrt(vv/c2) + eps)
		}
	}
}

// ClipGradNorm scales the model's accumulated gradients so their global L2
// norm is at most maxNorm, and returns the pre-clip norm.
func ClipGradNorm(m *Sequential, maxNorm float64) float64 {
	_, gs := m.Params()
	total := 0.0
	for _, g := range gs {
		n := g.Norm2()
		total += n * n
	}
	total = math.Sqrt(total)
	if total > maxNorm && total > 0 {
		scale := maxNorm / total
		for _, g := range gs {
			g.ScaleInPlace(scale)
		}
	}
	return total
}
