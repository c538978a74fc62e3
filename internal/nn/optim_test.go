package nn

import (
	"fmt"
	"math"
	"testing"

	"fedmigr/internal/tensor"
)

// refAdamStep is Adam.Step as it was before moments were flushed to zero
// below the normal range: the reference TestAdamMatchesReference holds the
// optimizer to.
func refAdamStep(a *Adam, m *Sequential) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	ps, gs := m.Params()
	for i, p := range ps {
		g := gs[i]
		if g == nil {
			continue // non-learnable parameter (e.g. BatchNorm statistics)
		}
		m1, ok := a.m1[p]
		if !ok {
			m1 = tensor.New(p.Shape()...)
			a.m1[p] = m1
			a.m2[p] = tensor.New(p.Shape()...)
		}
		m2 := a.m2[p]
		pd, gd, m1d, m2d := p.Data(), g.Data(), m1.Data(), m2.Data()
		for j, gv := range gd {
			m1d[j] = a.Beta1*m1d[j] + (1-a.Beta1)*gv
			m2d[j] = a.Beta2*m2d[j] + (1-a.Beta2)*gv*gv
			mh := m1d[j] / c1
			vh := m2d[j] / c2
			pd[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		g.Zero()
	}
}

// refSGDStep is SGD.Step as it was before its passes were fused, kept
// verbatim: decay, momentum and the update as separate tensor passes per
// parameter, then the gradient's clear. TestSGDStepMatchesReference holds
// the one-pass Step to it.
func refSGDStep(s *SGD, m *Sequential) {
	ps, gs := m.Params()
	for i, p := range ps {
		g := gs[i]
		if s.WeightDecay != 0 {
			g.AddScaledInPlace(p, s.WeightDecay)
		}
		step := g
		if s.Momentum != 0 {
			v, ok := s.vel[p]
			if !ok {
				v = tensor.New(p.Shape()...)
				s.vel[p] = v
			}
			step = v.ScaleInPlace(s.Momentum).AddInPlace(g)
		}
		p.AddScaledInPlace(step, -s.LR)
		g.Zero()
	}
}

// TestSGDStepMatchesReference runs the one-pass Step beside the two-pass
// reference on identical networks for momentum ∈ {0, 0.9} × weight decay ∈
// {0, 1e-4}, six steps each, with specials (both NaN signs, both zeros,
// both infinities, subnormals, ±MaxFloat64) planted in the parameters and
// in every step's gradients: parameters and velocities must agree bit for
// bit after every step, and every gradient must be +0.
func TestSGDStepMatchesReference(t *testing.T) {
	sp := specialFloats()
	sp = append(sp, 0x1p-1040, -0x1p-1060)
	for _, momentum := range []float64{0, 0.9} {
		for _, decay := range []float64{0, 1e-4} {
			newNet := func() *Sequential {
				m := NewMLP(tensor.NewRNG(21), 10, 16, 4)
				v := m.ParamVector()
				for k, x := range sp {
					v.Data()[3*k] = x
				}
				m.SetParamVector(v)
				return m
			}
			got, want := newNet(), newNet()
			opt, ref := NewSGDMomentum(0.05, momentum), NewSGDMomentum(0.05, momentum)
			opt.WeightDecay, ref.WeightDecay = decay, decay
			gp, gg := got.Params()
			wp, wg := want.Params()
			sched := tensor.NewRNG(22)
			for s := 0; s < 6; s++ {
				n := 0
				for i, g := range gg {
					for j := range g.Data() {
						v := sched.NormFloat64() * 0.1
						if n%11 == s {
							v = sp[(n/11+s)%len(sp)]
						}
						g.Data()[j], wg[i].Data()[j] = v, v
						n++
					}
				}
				opt.Step(got)
				refSGDStep(ref, want)
				what := fmt.Sprintf("momentum %v decay %v step %d", momentum, decay, s)
				for i, p := range gp {
					requireBits(t, what+" parameter", p.Data(), wp[i].Data())
					if momentum != 0 {
						requireBits(t, what+" velocity", opt.vel[p].Data(), ref.vel[wp[i]].Data())
					}
					for j, v := range gg[i].Data() {
						if math.Float64bits(v) != 0 {
							t.Fatalf("%s: gradient %d[%d] = %v after Step, want +0", what, i, j, v)
						}
					}
				}
				if momentum == 0 && len(opt.vel) != 0 {
					t.Fatalf("%s: a momentum-free Step made %d velocity buffers", what, len(opt.vel))
				}
			}
		}
	}
}

func isSubnormal(v float64) bool { return v != 0 && math.Abs(v) < minNormal }

// countSubnormal counts the subnormal entries of an optimizer's moments.
func countSubnormal(a *Adam) (m1, m2 int) {
	for _, t := range a.m1 {
		for _, v := range t.Data() {
			if isSubnormal(v) {
				m1++
			}
		}
	}
	for _, t := range a.m2 {
		for _, v := range t.Data() {
			if isSubnormal(v) {
				m2++
			}
		}
	}
	return m1, m2
}

// adamGrad is the test's gradient schedule for element j at step s. Element
// classes by j mod 5: always live; live until step 300 and exactly 0 after
// (long enough for the first moment to decay through the normal range);
// the same but live again from step 7600 (a normal gradient meets the old
// leftover); zero every other step; tiny (1e-160, so g² is subnormal).
func adamGrad(g *tensor.RNG, s, j int) float64 {
	v := g.NormFloat64() * 1e-2
	switch j % 5 {
	case 1:
		if s >= 300 {
			return 0
		}
	case 2:
		if s >= 300 && s < 7600 {
			return 0
		}
	case 3:
		if s%2 == 1 {
			return 0
		}
	case 4:
		return v * 1e-158
	}
	return v
}

// TestAdamMatchesReference runs the optimizer beside the unflushed
// reference on identical networks for 8k steps of a gradient schedule in
// which elements go to exactly 0: the parameters must agree bit for bit
// after every step, the reference's first moments must reach the
// subnormal range (the stall the flush removes), and the optimizer's own
// moments must never be subnormal.
func TestAdamMatchesReference(t *testing.T) {
	const steps = 8000
	newNet := func() *Sequential { return NewMLP(tensor.NewRNG(11), 12, 24, 6) }
	got, want := newNet(), newNet()
	opt, ref := NewAdam(2e-3), NewAdam(2e-3)
	gp, gg := got.Params()
	wp, wg := want.Params()
	sched := tensor.NewRNG(12)
	refSub := 0
	for s := 0; s < steps; s++ {
		for i, g := range gg {
			for j := range g.Data() {
				v := adamGrad(sched, s, j)
				g.Data()[j], wg[i].Data()[j] = v, v
			}
		}
		opt.Step(got)
		refAdamStep(ref, want)
		for i, p := range gp {
			for j, v := range p.Data() {
				if math.Float64bits(v) != math.Float64bits(wp[i].Data()[j]) {
					t.Fatalf("step %d: parameter %d[%d] = %v, reference %v", s, i, j, v, wp[i].Data()[j])
				}
			}
			for j, v := range gg[i].Data() {
				if v != 0 {
					t.Fatalf("step %d: gradient %d[%d] = %v after Step, want 0", s, i, j, v)
				}
			}
		}
		if m1, m2 := countSubnormal(opt); m1+m2 > 0 {
			t.Fatalf("step %d: %d first and %d second moments subnormal", s, m1, m2)
		}
		m1, _ := countSubnormal(ref)
		refSub = max(refSub, m1)
	}
	if refSub == 0 {
		t.Fatal("the reference's first moments never went subnormal: the schedule does not reach the stall")
	}
}

// inputGradShapes are the models InputGrad must agree with Backward on: an
// MLP, the DDPG critic at batch 1 and 16, and the actor (softmax head).
func inputGradShapes() map[string]struct {
	m     *Sequential
	batch int
} {
	g := tensor.NewRNG(21)
	critic := func() *Sequential {
		return NewSequential(NewDense(g, 57, 64), NewReLU(), NewDense(g, 64, 64), NewReLU(), NewDense(g, 64, 1))
	}
	return map[string]struct {
		m     *Sequential
		batch int
	}{
		"MLP":      {NewMLP(g, 12, 32, 32, 5), 4},
		"critic1":  {critic(), 1},
		"critic16": {critic(), 16},
		"actor": {NewSequential(NewDense(g, 47, 64), NewReLU(), NewDense(g, 64, 64), NewReLU(),
			NewDense(g, 64, 10), NewSoftmaxLayer()), 1},
	}
}

func floatBits(t *tensor.Tensor) []uint64 {
	bits := make([]uint64, t.Size())
	for i, v := range t.Data() {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestInputGradMatchesBackward: InputGrad returns the input gradient of a
// full back-propagation (refBackward) bit for bit and leaves every
// accumulator as it found it (nonzero here, from an earlier Backward).
func TestInputGradMatchesBackward(t *testing.T) {
	for name, c := range inputGradShapes() {
		m := c.m
		g := tensor.NewRNG(22)
		x := tensor.Randn(g, 1, c.batch, m.Layers[0].(*Dense).W.Dim(1))
		out := m.Forward(x, true)
		grad := tensor.Randn(g, 1, out.Shape()...)
		m.Backward(grad) // leaves nonzero accumulators behind
		_, gs := m.Params()
		var before [][]uint64
		for _, a := range gs {
			before = append(before, floatBits(a))
		}
		m.Forward(x, true)
		got := floatBits(m.InputGrad(grad))
		for i, a := range gs {
			for j, b := range floatBits(a) {
				if b != before[i][j] {
					t.Fatalf("%s: InputGrad changed accumulator %d at %d", name, i, j)
				}
			}
		}
		want := floatBits(refBackward(m, grad))
		if len(got) != len(want) {
			t.Fatalf("%s: InputGrad gave %d values, Backward %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: input gradient %d differs from Backward's", name, i)
			}
		}
	}
}

// paramOnly is the identity with a learnable scalar it never uses: a layer
// with parameters but no InputGrad.
type paramOnly struct{ p, g *tensor.Tensor }

func (l *paramOnly) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (l *paramOnly) Backward(grad *tensor.Tensor) *tensor.Tensor     { return grad }
func (l *paramOnly) Params() ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{l.p}, []*tensor.Tensor{l.g}
}
func (l *paramOnly) Name() string { return "paramOnly" }

// TestInputGradPanicsWithoutLayerSupport: a layer with parameters but no
// InputGrad must not be silently run through Backward.
func TestInputGradPanicsWithoutLayerSupport(t *testing.T) {
	g := tensor.NewRNG(23)
	m := NewSequential(NewDense(g, 6, 4), &paramOnly{tensor.New(1), tensor.New(1)}, NewDense(g, 4, 2))
	out := m.Forward(tensor.Randn(g, 1, 2, 6), true)
	defer func() {
		if recover() == nil {
			t.Fatal("InputGrad through a layer without InputGrad did not panic")
		}
	}()
	m.InputGrad(tensor.New(out.Shape()...))
}
