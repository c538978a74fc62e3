package nn

import (
	"math"
	"testing"
	"testing/quick"

	"fedmigr/internal/tensor"
)

// numGrad computes a central finite-difference gradient of loss() w.r.t.
// every element of p.
func numGrad(p *tensor.Tensor, loss func() float64) []float64 {
	const h = 1e-5
	g := make([]float64, p.Size())
	for i := range p.Data() {
		orig := p.Data()[i]
		p.Data()[i] = orig + h
		lp := loss()
		p.Data()[i] = orig - h
		lm := loss()
		p.Data()[i] = orig
		g[i] = (lp - lm) / (2 * h)
	}
	return g
}

// checkModelGrads verifies analytic parameter gradients against finite
// differences for a model on a cross-entropy task.
func checkModelGrads(t *testing.T, m *Sequential, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	lossFn := func() float64 {
		out := m.Forward(x, false)
		l, _ := CrossEntropy(out, labels)
		return l
	}
	m.ZeroGrad()
	out := m.Forward(x, true)
	_, g := CrossEntropy(out, labels)
	m.Backward(g)
	ps, gs := m.Params()
	for pi, p := range ps {
		ng := numGrad(p, lossFn)
		for i, want := range ng {
			got := gs[pi].Data()[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %d elem %d: analytic %v vs numeric %v", pi, i, got, want)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	g := tensor.NewRNG(1)
	m := NewSequential(NewDense(g, 4, 5), NewReLU(), NewDense(g, 5, 3))
	x := tensor.Randn(g, 1, 2, 4)
	checkModelGrads(t, m, x, []int{0, 2}, 1e-5)
}

func TestConvModelGradients(t *testing.T) {
	g := tensor.NewRNG(2)
	m := NewSequential(
		NewConv2D(g, 1, 2, 3, 3, 1, 1), NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(g, 2*2*2, 3),
	)
	x := tensor.Randn(g, 1, 2, 1, 4, 4)
	checkModelGrads(t, m, x, []int{1, 0}, 1e-4)
}

func TestResidualGradients(t *testing.T) {
	g := tensor.NewRNG(3)
	m := NewSequential(
		NewConv2D(g, 1, 2, 3, 3, 1, 1),
		NewResidual(NewConv2D(g, 2, 2, 3, 3, 1, 1), NewReLU(), NewConv2D(g, 2, 2, 3, 3, 1, 1)),
		NewFlatten(),
		NewDense(g, 2*3*3, 2),
	)
	x := tensor.Randn(g, 1, 2, 1, 3, 3)
	checkModelGrads(t, m, x, []int{0, 1}, 1e-4)
}

func TestTanhGradients(t *testing.T) {
	g := tensor.NewRNG(4)
	m := NewSequential(NewDense(g, 3, 4), NewTanh(), NewDense(g, 4, 2))
	x := tensor.Randn(g, 1, 2, 3)
	checkModelGrads(t, m, x, []int{0, 1}, 1e-5)
}

func TestInputGradient(t *testing.T) {
	// InputGrad after Backward must give a correct dL/dx (needed by DDPG's ∇aQ).
	g := tensor.NewRNG(5)
	m := NewSequential(NewDense(g, 3, 4), NewReLU(), NewDense(g, 4, 2))
	x := tensor.Randn(g, 1, 1, 3)
	labels := []int{1}
	m.ZeroGrad()
	out := m.Forward(x, true)
	_, gr := CrossEntropy(out, labels)
	m.Backward(gr)
	dx := m.InputGrad(gr)
	ng := numGrad(x, func() float64 {
		out := m.Forward(x, false)
		l, _ := CrossEntropy(out, labels)
		return l
	})
	for i, want := range ng {
		if math.Abs(dx.Data()[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx.Data()[i], want)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		l := tensor.Randn(g, 3, 4, 5)
		p := Softmax(l)
		for i := 0; i < 4; i++ {
			s := 0.0
			for j := 0; j < 5; j++ {
				v := p.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	g := tensor.NewRNG(6)
	l := tensor.Randn(g, 1, 2, 4)
	p1 := Softmax(l)
	shifted := l.Map(func(v float64) float64 { return v + 1000 })
	p2 := Softmax(shifted)
	for i := range p1.Data() {
		if math.Abs(p1.Data()[i]-p2.Data()[i]) > 1e-9 {
			t.Fatal("softmax must be shift-invariant")
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float64{100, 0, 0, 0, 100, 0}, 2, 3)
	loss, _ := CrossEntropy(logits, []int{0, 1})
	if loss > 1e-6 {
		t.Fatalf("perfect prediction should have ~0 loss, got %v", loss)
	}
}

func TestCrossEntropyUniformIsLogC(t *testing.T) {
	logits := tensor.New(1, 4)
	loss, _ := CrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Fatalf("uniform loss %v, want ln4=%v", loss, math.Log(4))
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 2, 3, 9, 0, 1}, 2, 3)
	if a := Accuracy(logits, []int{2, 0}); a != 1 {
		t.Fatalf("accuracy=%v want 1", a)
	}
	if a := Accuracy(logits, []int{0, 0}); a != 0.5 {
		t.Fatalf("accuracy=%v want 0.5", a)
	}
}

func TestMSE(t *testing.T) {
	p := tensor.FromSlice([]float64{1, 2}, 2)
	y := tensor.FromSlice([]float64{0, 4}, 2)
	loss, grad := MSE(p, y)
	if math.Abs(loss-2.5) > 1e-12 { // (1+4)/2
		t.Fatalf("MSE=%v want 2.5", loss)
	}
	if grad.At(0) != 1 || grad.At(1) != -2 {
		t.Fatalf("MSE grad %v", grad.Data())
	}
}

func TestSGDReducesLoss(t *testing.T) {
	g := tensor.NewRNG(7)
	m := NewMLP(g, 2, 16, 2)
	opt := NewSGDMomentum(0.1, 0.9)
	// XOR-ish separable task.
	x := tensor.FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	first := -1.0
	var last float64
	for it := 0; it < 300; it++ {
		m.ZeroGrad()
		out := m.Forward(x, true)
		l, gr := CrossEntropy(out, labels)
		if first < 0 {
			first = l
		}
		last = l
		m.Backward(gr)
		opt.Step(m)
	}
	if last > first*0.5 {
		t.Fatalf("SGD failed to learn XOR: first=%v last=%v", first, last)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	g := tensor.NewRNG(8)
	m := NewMLP(g, 2, 16, 2)
	opt := NewAdam(0.01)
	x := tensor.FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	first, last := -1.0, 0.0
	for it := 0; it < 300; it++ {
		m.ZeroGrad()
		out := m.Forward(x, true)
		l, gr := CrossEntropy(out, labels)
		if first < 0 {
			first = l
		}
		last = l
		m.Backward(gr)
		opt.Step(m)
	}
	if last > first*0.5 {
		t.Fatalf("Adam failed to learn XOR: first=%v last=%v", first, last)
	}
}

func TestClipGradNorm(t *testing.T) {
	g := tensor.NewRNG(9)
	m := NewMLP(g, 2, 4, 2)
	x := tensor.Randn(g, 1, 4, 2)
	m.ZeroGrad()
	out := m.Forward(x, true)
	_, gr := CrossEntropy(out, []int{0, 1, 0, 1})
	m.Backward(gr)
	pre := ClipGradNorm(m, 1e-3)
	if pre <= 0 {
		t.Fatal("expected nonzero pre-clip norm")
	}
	_, gs := m.Params()
	total := 0.0
	for _, gg := range gs {
		n := gg.Norm2()
		total += n * n
	}
	if math.Sqrt(total) > 1e-3+1e-12 {
		t.Fatalf("post-clip norm %v exceeds bound", math.Sqrt(total))
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	g := tensor.NewRNG(10)
	m := NewMLP(g, 3, 5, 2)
	v := m.ParamVector()
	m2 := NewMLP(tensor.NewRNG(99), 3, 5, 2)
	m2.SetParamVector(v)
	v2 := m2.ParamVector()
	for i := range v.Data() {
		if v.Data()[i] != v2.Data()[i] {
			t.Fatal("ParamVector round trip mismatch")
		}
	}
}

func TestMarshalParamsRoundTrip(t *testing.T) {
	g := tensor.NewRNG(11)
	m := NewC10CNN(g, ModelSpec{Channels: 1, Height: 8, Width: 8, Classes: 4})
	b, err := m.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) < m.ByteSize() {
		t.Fatalf("payload %d bytes smaller than raw params %d", len(b), m.ByteSize())
	}
	m2 := NewC10CNN(tensor.NewRNG(12), ModelSpec{Channels: 1, Height: 8, Width: 8, Classes: 4})
	if err := m2.UnmarshalParams(b); err != nil {
		t.Fatal(err)
	}
	v1, v2 := m.ParamVector(), m2.ParamVector()
	for i := range v1.Data() {
		if v1.Data()[i] != v2.Data()[i] {
			t.Fatal("MarshalParams round trip mismatch")
		}
	}
}

func TestUnmarshalParamsRejectsGarbage(t *testing.T) {
	g := tensor.NewRNG(13)
	m := NewMLP(g, 2, 2)
	if err := m.UnmarshalParams([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for truncated payload")
	}
	if err := m.UnmarshalParams(make([]byte, 64)); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestUnmarshalParamsRejectsWrongArch(t *testing.T) {
	g := tensor.NewRNG(14)
	m := NewMLP(g, 2, 3, 2)
	other := NewMLP(g, 2, 4, 2)
	b, err := other.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UnmarshalParams(b); err == nil {
		t.Fatal("expected error for architecture mismatch")
	}
}

// Property: serialization round-trip preserves all parameters exactly.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		m := NewMLP(g, 3, 4, 2)
		b, err := m.MarshalParams()
		if err != nil {
			return false
		}
		m2 := NewMLP(tensor.NewRNG(seed+1), 3, 4, 2)
		if err := m2.UnmarshalParams(b); err != nil {
			return false
		}
		v1, v2 := m.ParamVector(), m2.ParamVector()
		for i := range v1.Data() {
			if v1.Data()[i] != v2.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestZooShapesAndOrdering(t *testing.T) {
	g := tensor.NewRNG(15)
	spec10 := ModelSpec{Channels: 3, Height: 8, Width: 8, Classes: 10}
	spec100 := ModelSpec{Channels: 3, Height: 8, Width: 8, Classes: 100}
	c10 := NewC10CNN(g, spec10)
	c100 := NewC100CNN(g, spec100)
	res := NewResLite(g, spec100, 3)
	x := tensor.Randn(g, 1, 2, 3, 8, 8)
	if out := c10.Forward(x, false); out.Dim(1) != 10 {
		t.Fatalf("C10CNN output %v", out.Shape())
	}
	if out := c100.Forward(x, false); out.Dim(1) != 100 {
		t.Fatalf("C100CNN output %v", out.Shape())
	}
	if out := res.Forward(x, false); out.Dim(1) != 100 {
		t.Fatalf("ResLite output %v", out.Shape())
	}
	if !(res.NumParams() > c100.NumParams() && c100.NumParams() > c10.NumParams()) {
		t.Fatalf("size ordering violated: res=%d c100=%d c10=%d",
			res.NumParams(), c100.NumParams(), c10.NumParams())
	}
}

func TestCopyParamsFrom(t *testing.T) {
	g := tensor.NewRNG(16)
	a := NewMLP(g, 2, 3, 2)
	b := NewMLP(g, 2, 3, 2)
	b.CopyParamsFrom(a)
	va, vb := a.ParamVector(), b.ParamVector()
	for i := range va.Data() {
		if va.Data()[i] != vb.Data()[i] {
			t.Fatal("CopyParamsFrom mismatch")
		}
	}
	// Must be a copy, not aliasing.
	pa, _ := a.Params()
	pa[0].Data()[0] += 1
	if b.ParamVector().Data()[0] == a.ParamVector().Data()[0] {
		t.Fatal("CopyParamsFrom must not alias storage")
	}
}

func TestSequentialStringAndNames(t *testing.T) {
	g := tensor.NewRNG(17)
	m := NewSequential(NewConv2D(g, 1, 2, 3, 3, 1, 1), NewReLU(), NewMaxPool2D(2, 2), NewFlatten(), NewDense(g, 2, 2), NewTanh())
	if m.String() == "" {
		t.Fatal("empty model summary")
	}
	for _, l := range m.Layers {
		if l.Name() == "" {
			t.Fatal("layer with empty name")
		}
	}
}

func TestForwardInferenceDoesNotCache(t *testing.T) {
	g := tensor.NewRNG(18)
	d := NewDense(g, 2, 2)
	x := tensor.Randn(g, 1, 1, 2)
	d.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after inference Forward should panic")
		}
	}()
	d.Backward(tensor.New(1, 2))
}
