package nn

import (
	"fmt"
	"math"
	"testing"

	"fedmigr/internal/tensor"
)

var stepSpec = ModelSpec{Channels: 3, Height: 8, Width: 8, Classes: 10}

// stepModels builds the zoo models the allocation and ownership tests
// drive, each from a fresh fixed-seed RNG so repeated calls are identical.
func stepModels() map[string]func() *Sequential {
	return map[string]func() *Sequential{
		"C10CNN":   func() *Sequential { return NewC10CNN(tensor.NewRNG(3), stepSpec) },
		"ResLite":  func() *Sequential { return NewResLite(tensor.NewRNG(3), stepSpec, 2) },
		"AlexLite": func() *Sequential { return NewAlexLite(tensor.NewRNG(3), stepSpec) },
		"MLP": func() *Sequential {
			mlp := NewMLP(tensor.NewRNG(3), 192, 64, 10)
			return NewSequential(append([]Layer{NewFlatten()}, mlp.Layers...)...)
		},
	}
}

// fillBatch loads a deterministic batch of n samples into the model's input
// buffer and returns it with its labels.
func fillBatch(m *Sequential, n int, seed int64) (*tensor.Tensor, []int) {
	g := tensor.NewRNG(seed)
	x := m.Input(n, stepSpec.Channels, stepSpec.Height, stepSpec.Width)
	for i := range x.Data() {
		x.Data()[i] = g.NormFloat64()
	}
	y := make([]int, n)
	for i := range y {
		y[i] = g.Intn(stepSpec.Classes)
	}
	return x, y
}

// TestTrainStepAllocatesNothing pins the tentpole: once a model has seen
// its batch size, a full step — load, forward, loss, backward, optimizer —
// touches the heap zero times.
func TestTrainStepAllocatesNothing(t *testing.T) {
	for name, build := range stepModels() {
		m := build()
		opt := NewSGDMomentum(0.05, 0.9)
		src, y := fillBatch(build(), 32, 1)
		step := func() {
			x := m.Input(src.Shape()...)
			copy(x.Data(), src.Data())
			m.ZeroGrad()
			_, grad := m.CrossEntropy(m.Forward(x, true), y)
			m.Backward(grad)
			opt.Step(m)
		}
		step() // warm: buffers grow, momentum slots appear
		if n := testing.AllocsPerRun(5, step); n != 0 {
			t.Errorf("%s: a warmed train step allocates %v times, want 0", name, n)
		}
	}
}

// TestEvalForwardAllocatesNothing pins the inference path: Conv2D.Forward
// used to take an im2col panel from the arena on every evaluation batch
// and never return it; the panel is now the layer's own.
func TestEvalForwardAllocatesNothing(t *testing.T) {
	for name, build := range stepModels() {
		m := build()
		x, _ := fillBatch(m, 256, 2)
		m.Forward(x, false)
		if n := testing.AllocsPerRun(5, func() { m.Forward(x, false) }); n != 0 {
			t.Errorf("%s: a second evaluation forward allocates %v times, want 0", name, n)
		}
	}
}

// passBits runs one forward/backward (or, for eval, one inference forward)
// on m and returns every float it produced: logits, parameter gradients and
// the input gradient.
func passBits(m *Sequential, n int, seed int64, train bool) []uint64 {
	x, y := fillBatch(m, n, seed)
	var out []*tensor.Tensor
	logits := m.Forward(x, train)
	out = append(out, logits)
	if train {
		m.ZeroGrad()
		_, grad := m.CrossEntropy(logits, y)
		m.Backward(grad)
		dx := m.InputGrad(grad)
		_, gs := m.Params()
		out = append(append(out, gs...), dx)
	}
	var bits []uint64
	for _, t := range out {
		for _, v := range t.Data() {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestShrinkGrowBatchesMatchFreshModels drives one model through batch
// sizes 32 → 4 → 32 → 256 (eval) — every buffer shrinks, regrows within
// capacity and finally reallocates — and requires the bits a fresh model
// produces on each batch alone: stale tails and reused storage must never
// leak into a result.
func TestShrinkGrowBatchesMatchFreshModels(t *testing.T) {
	passes := []struct {
		n     int
		train bool
	}{{32, true}, {4, true}, {32, true}, {256, false}}
	for name, build := range stepModels() {
		reused := build()
		for i, p := range passes {
			got := passBits(reused, p.n, int64(10+i), p.train)
			want := passBits(build(), p.n, int64(10+i), p.train)
			if len(got) != len(want) {
				t.Fatalf("%s pass %d: %d values vs %d", name, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s pass %d (batch %d): value %d differs from a fresh model's", name, i, p.n, j)
				}
			}
		}
	}
}

// TestLayerOutputsAreLayerOwned checks the ownership rule from the
// caller's side: a layer never writes to its input, and the tensors one
// step returns stay intact while the other layers run (the benchmark's
// replay and Residual both hold several at once).
func TestLayerOutputsAreLayerOwned(t *testing.T) {
	for name, build := range stepModels() {
		m := build()
		x, y := fillBatch(m, 8, 4)
		acts := []*tensor.Tensor{x}
		var snaps [][]float64
		for _, l := range m.Layers {
			in := acts[len(acts)-1]
			snaps = append(snaps, append([]float64(nil), in.Data()...))
			acts = append(acts, l.Forward(in, true))
		}
		_, grad := m.CrossEntropy(acts[len(acts)-1], y)
		for i := len(m.Layers) - 1; i >= 0; i-- {
			grad = m.Layers[i].Backward(grad)
		}
		for i, snap := range snaps {
			for j, v := range acts[i].Data() {
				if math.Float64bits(v) != math.Float64bits(snap[j]) {
					t.Fatalf("%s: input of layer %d (%s) changed at %d after the step", name, i, m.Layers[i].Name(), j)
				}
			}
		}
	}
}

func TestSequentialParamsListsAreBuiltOnce(t *testing.T) {
	m := stepModels()["ResLite"]()
	ps, gs := m.Params()
	ps2, gs2 := m.Params()
	if len(ps) == 0 || &ps[0] != &ps2[0] || &gs[0] != &gs2[0] {
		t.Fatal("Params rebuilt its lists on a second call")
	}
	if n := testing.AllocsPerRun(10, func() { m.ZeroGrad(); _ = m.NumParams() }); n != 0 {
		t.Fatalf("ZeroGrad+NumParams allocate %v times", n)
	}
	m.Layers = append(m.Layers, NewDense(tensor.NewRNG(1), 10, 3))
	if ps3, _ := m.Params(); len(ps3) != len(ps)+2 {
		t.Fatalf("Params did not pick up an appended layer: %d → %d", len(ps), len(ps3))
	}
}

// requireZeroGrads fails unless every gradient of m is +0.
func requireZeroGrads(t *testing.T, what string, m *Sequential) {
	t.Helper()
	_, gs := m.Params()
	for i, g := range gs {
		for j, v := range g.Data() {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: gradient %d[%d] = %v, want +0", what, i, j, v)
			}
		}
	}
}

// TestGradientsZeroBetweenSteps pins the invariant training loops rely on
// instead of a ZeroGrad per batch: a new model's gradients are +0, and so
// is every gradient after SGD.Step (with momentum and decay), though
// Backward filled them. A loop without ZeroGrad gives a loop with it the
// same bits.
func TestGradientsZeroBetweenSteps(t *testing.T) {
	for name, build := range stepModels() {
		got, want := build(), build()
		requireZeroGrads(t, name+" after NewSequential", got)
		opt, ref := NewSGDMomentum(0.05, 0.9), NewSGDMomentum(0.05, 0.9)
		opt.WeightDecay, ref.WeightDecay = 1e-4, 1e-4
		for s := 0; s < 3; s++ {
			src, y := fillBatch(build(), 8, int64(s))
			for _, m := range []*Sequential{got, want} {
				x := m.Input(src.Shape()...)
				copy(x.Data(), src.Data())
				if m == want {
					m.ZeroGrad()
				}
				_, grad := m.CrossEntropy(m.Forward(x, true), y)
				m.Backward(grad)
			}
			_, gs := got.Params()
			if gs[len(gs)-1].Norm2() == 0 {
				t.Fatalf("%s step %d: Backward left the last gradient zero", name, s)
			}
			opt.Step(got)
			ref.Step(want)
			requireZeroGrads(t, fmt.Sprintf("%s after SGD.Step %d", name, s), got)
		}
		gp, _ := got.Params()
		wp, _ := want.Params()
		for i, p := range gp {
			for j, v := range p.Data() {
				if math.Float64bits(v) != math.Float64bits(wp[i].Data()[j]) {
					t.Fatalf("%s: parameter %d[%d] is %v without ZeroGrad, %v with it", name, i, j, v, wp[i].Data()[j])
				}
			}
		}
	}
}
