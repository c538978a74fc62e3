package nn

import (
	"fmt"
	"math"
	"testing"

	"fedmigr/internal/sched"
	"fedmigr/internal/tensor"
)

// The references below are the layer code as it was before Backward
// stopped at the lowest parameterised layer and ReLU went branch-free.

// refBackward is the old Sequential.Backward: every layer's Backward, down
// to the input gradient, which it returns.
func refBackward(m *Sequential, grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
}

// refBackward is the old Conv2D.Backward on fresh temporaries: it adds dK
// and db to GK and GB and returns dx.
func (c *Conv2D) refBackward(grad *tensor.Tensor) *tensor.Tensor {
	f := c.K.Dim(0)
	n, h, w := c.inShape[0], c.inShape[2], c.inShape[3]
	oh, ow := c.P.OutSize(h, w)
	gm := tensor.New(n*oh*ow, f)
	gd, gmd, ohw := grad.Data(), gm.Data(), oh*ow
	for ni := 0; ni < n; ni++ {
		dst := gmd[ni*ohw*f : (ni+1)*ohw*f]
		for fi := 0; fi < f; fi++ {
			for pos, g := range gd[(ni*f+fi)*ohw:][:ohw] {
				dst[pos*f+fi] = g
			}
		}
	}
	c.GK.AddInPlace(tensor.MatMulTransA(gm, c.cols))
	c.GB.AddInPlace(gm.SumRows())
	return tensor.Col2Im(tensor.MatMul(gm, c.kmat), n, c.inShape[1], h, w, c.P)
}

// refForward is the old Conv2D.Forward on fresh temporaries, its im2col
// panel unrolled by the textbook loop instead of a panel map.
func (c *Conv2D) refForward(x *tensor.Tensor) *tensor.Tensor {
	f := c.K.Dim(0)
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.P.OutSize(h, w)
	cols := refIm2Col(x, c.P)               // (N*OH*OW, C*KH*KW)
	kmat := c.K.Reshape(f, cols.Dim(1))     // (F, C*KH*KW)
	prod := tensor.MatMulTransB(cols, kmat) // (N*OH*OW, F)
	out := tensor.New(n, f, oh, ow)
	// Rearrange (N*OH*OW, F) to (N,F,OH,OW), adding the bias.
	od, rd, bd, ohw := prod.Data(), out.Data(), c.B.Data()[:f], oh*ow
	for ni := 0; ni < n; ni++ {
		dst := rd[ni*f*ohw : (ni+1)*f*ohw]
		for pos := 0; pos < ohw; pos++ {
			row := od[(ni*ohw+pos)*f:][:f]
			for fi, b := range bd {
				dst[fi*ohw+pos] = row[fi] + b
			}
		}
	}
	return out
}

// refIm2Col is the textbook unroll: one receptive field a row, padding as
// zeros.
func refIm2Col(x *tensor.Tensor, p tensor.ConvParams) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := p.OutSize(h, w)
	colW := c * p.KernelH * p.KernelW
	cols := tensor.New(n*oh*ow, colW)
	cd, xd := cols.Data(), x.Data()
	for r := 0; r < n*oh*ow; r++ {
		ni, oy, ox := r/(oh*ow), (r/ow)%oh, r%ow
		col := 0
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < p.KernelH; ky++ {
				for kx := 0; kx < p.KernelW; kx++ {
					iy, ix := oy*p.StrideH-p.PadH+ky, ox*p.StrideW-p.PadW+kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						cd[r*colW+col] = xd[((ni*c+ci)*h+iy)*w+ix]
					}
					col++
				}
			}
		}
	}
	return cols
}

// refReLUForward and refReLUBackward are the old branchy ReLU loops.
func refReLUForward(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
	return y
}

func refReLUBackward(out, grad []float64) []float64 {
	dx := make([]float64, len(grad))
	for i, g := range grad {
		if out[i] > 0 {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// withWorkers runs fn with a pool of the given size installed under the
// tensor kernels, serially for 1.
func withWorkers(workers int, fn func()) {
	if workers > 1 {
		pool := sched.New(workers)
		defer pool.Close()
		defer tensor.InstallPool(tensor.InstallPool(pool))
	}
	fn()
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s: value %d is %v (%#x), reference %v (%#x)", what, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// specialFloats seeds the values a select must pass through unchanged or
// reject: both NaN signs, both zeros, both infinities, subnormals.
func specialFloats() []float64 {
	return []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
}

// TestReLUMatchesReference: the branch-free ReLU gives the branchy loops'
// bits on every input, specials included, writing into dirty buffers.
func TestReLUMatchesReference(t *testing.T) {
	g := tensor.NewRNG(61)
	sp := specialFloats()
	x := tensor.Randn(g, 1, 7, 9)
	grad := tensor.Randn(g, 1, 7, 9)
	// Specials as inputs, as gradients over random inputs, and as both.
	for i, v := range sp {
		x.Data()[i*5] = v
		grad.Data()[i*5+1] = v
		x.Data()[i*5+2], grad.Data()[i*5+2] = sp[(i+3)%len(sp)], v
	}
	wantY := refReLUForward(x.Data())
	wantDx := refReLUBackward(wantY, grad.Data())
	for _, workers := range []int{1, 8} {
		withWorkers(workers, func() {
			r := NewReLU()
			// Dirty the owned buffers: a larger NaN pass first.
			nan := tensor.Full(math.NaN(), 9, 11)
			r.Forward(nan, true)
			r.Backward(nan)
			requireBits(t, fmt.Sprintf("forward workers=%d", workers), r.Forward(x, true).Data(), wantY)
			requireBits(t, fmt.Sprintf("backward workers=%d", workers), r.Backward(grad).Data(), wantDx)
		})
	}
}

// backwardModels are the zoo models the backward split is checked on.
func backwardModels() map[string]func() *Sequential {
	ms := stepModels()
	ms["C100CNN"] = func() *Sequential { return NewC100CNN(tensor.NewRNG(3), stepSpec) }
	return ms
}

// TestBackwardMatchesReference trains two copies of each zoo model side by
// side, one through Backward and one through refBackward, at batch sizes
// 32 → 4 → 32, two SGD steps each: every parameter gradient must agree bit
// for bit, and InputGrad after Backward must return refBackward's input
// gradient.
func TestBackwardMatchesReference(t *testing.T) {
	for name, build := range backwardModels() {
		for _, workers := range []int{1, 8} {
			withWorkers(workers, func() {
				got, want := build(), build()
				gotOpt, wantOpt := NewSGDMomentum(0.05, 0.9), NewSGDMomentum(0.05, 0.9)
				step := 0
				for _, n := range []int{32, 4, 32} {
					for k := 0; k < 2; k++ {
						what := fmt.Sprintf("%s workers=%d step %d (batch %d)", name, workers, step, n)
						x, y := fillBatch(got, n, int64(70+step))
						wx := want.Input(x.Shape()...)
						copy(wx.Data(), x.Data())
						got.ZeroGrad()
						want.ZeroGrad()
						_, gg := got.CrossEntropy(got.Forward(x, true), y)
						_, wg := want.CrossEntropy(want.Forward(wx, true), y)
						got.Backward(gg)
						wdx := refBackward(want, wg)
						_, gs := got.Params()
						_, ws := want.Params()
						for i, a := range gs {
							requireBits(t, fmt.Sprintf("%s gradient %d", what, i), a.Data(), ws[i].Data())
						}
						requireBits(t, what+" input gradient", got.InputGrad(gg).Data(), wdx.Data())
						gotOpt.Step(got)
						wantOpt.Step(want)
						step++
					}
				}
			})
		}
	}
}

// TestConvInputGradMatchesReference: Conv2D.InputGrad returns the old
// Backward's dx bit for bit and leaves GK and GB as it found them (nonzero,
// from an earlier Backward); the split Backward still matches the old one
// in dx, GK and GB.
func TestConvInputGradMatchesReference(t *testing.T) {
	cases := []struct{ n, c, f, h, w, k, stride, pad int }{
		{4, 3, 8, 8, 8, 3, 1, 1},
		{2, 2, 5, 9, 7, 3, 2, 0},
		{3, 4, 6, 6, 6, 2, 2, 1},
		{1, 1, 2, 3, 3, 3, 1, 2},
	}
	for ci, tc := range cases {
		for _, workers := range []int{1, 8} {
			withWorkers(workers, func() {
				what := fmt.Sprintf("case %d workers=%d", ci, workers)
				got := NewConv2D(tensor.NewRNG(int64(80+ci)), tc.c, tc.f, tc.k, tc.k, tc.stride, tc.pad)
				want := NewConv2D(tensor.NewRNG(int64(80+ci)), tc.c, tc.f, tc.k, tc.k, tc.stride, tc.pad)
				g := tensor.NewRNG(int64(90 + ci))
				x := tensor.Randn(g, 1, tc.n, tc.c, tc.h, tc.w)
				out := got.Forward(x, true)
				want.Forward(x, true)
				grad0, grad := tensor.Randn(g, 1, out.Shape()...), tensor.Randn(g, 1, out.Shape()...)
				got.Backward(grad0)
				want.refBackward(grad0)
				gk, gb := append([]float64(nil), got.GK.Data()...), append([]float64(nil), got.GB.Data()...)
				wantDx := want.refBackward(grad)
				requireBits(t, what+" InputGrad", got.InputGrad(grad).Data(), wantDx.Data())
				requireBits(t, what+" GK after InputGrad", got.GK.Data(), gk)
				requireBits(t, what+" GB after InputGrad", got.GB.Data(), gb)
				requireBits(t, what+" Backward dx", got.Backward(grad).Data(), wantDx.Data())
				requireBits(t, what+" GK", got.GK.Data(), want.GK.Data())
				requireBits(t, what+" GB", got.GB.Data(), want.GB.Data())
			})
		}
	}
}

// convCase is a Conv2D geometry: channels in and out, input size, params.
type convCase struct {
	c, f, h, w int
	p          tensor.ConvParams
}

// newConvCase builds a He-initialised layer for tc (its h and w are the
// inputs'); NewConv2D takes one stride and pad, so P is set afterwards.
func newConvCase(seed int64, tc convCase) *Conv2D {
	l := NewConv2D(tensor.NewRNG(seed), tc.c, tc.f, tc.p.KernelH, tc.p.KernelW, 1, 0)
	l.P = tc.p
	return l
}

// TestConvForwardMatchesReference holds Conv2D.Forward, training and
// inference, to the old Forward bit for bit: at 1 and 8 workers, over
// batches 32 → 4 → 32, with ±0, Inf and NaN planted in the inputs and, on
// odd cases, in the weights. Then one layer is fed 8×8 → 10×10 → 8×8
// inputs, so its panel map is rebuilt twice: its output, dx, dK and db must
// equal a fresh layer's on each input.
func TestConvForwardMatchesReference(t *testing.T) {
	sq := func(k, s, p int) tensor.ConvParams {
		return tensor.ConvParams{KernelH: k, KernelW: k, StrideH: s, StrideW: s, PadH: p, PadW: p}
	}
	cases := []convCase{
		{3, 8, 8, 8, sq(3, 1, 1)},
		{3, 8, 10, 10, sq(3, 1, 1)},
		{4, 6, 10, 10, sq(3, 2, 1)},
		{2, 5, 8, 8, sq(2, 2, 1)},
		{3, 4, 9, 10, tensor.ConvParams{KernelH: 3, KernelW: 2, StrideH: 1, StrideW: 2, PadH: 1}},
	}
	sp := specialFloats()
	for ci, tc := range cases {
		for _, workers := range []int{1, 8} {
			withWorkers(workers, func() {
				l := newConvCase(int64(100+ci), tc)
				if ci%2 == 1 {
					for i, v := range sp[:6] {
						l.K.Data()[i*7%l.K.Size()] = v
					}
				}
				for step, n := range []int{32, 4, 32} {
					g := tensor.NewRNG(int64(110 + 10*ci + step))
					x := tensor.Randn(g, 1, n, tc.c, tc.h, tc.w)
					for i, v := range sp {
						x.Data()[(i*13+step)%x.Size()] = v
					}
					want := l.refForward(x).Data()
					what := fmt.Sprintf("case %d workers=%d batch %d", ci, workers, n)
					requireBits(t, what+" train", l.Forward(x, true).Data(), want)
					requireBits(t, what+" eval", l.Forward(x, false).Data(), want)
				}
			})
		}
	}

	tc := cases[0]
	reused := newConvCase(120, tc)
	for i, hw := range []int{8, 10, 8} {
		fresh := newConvCase(120, tc)
		g := tensor.NewRNG(int64(130 + i))
		x := tensor.Randn(g, 1, 4, tc.c, hw, hw)
		what := fmt.Sprintf("input %d (%dx%d)", i, hw, hw)
		out := reused.Forward(x, true)
		requireBits(t, what+" output", out.Data(), fresh.Forward(x, true).Data())
		grad := tensor.Randn(g, 1, out.Shape()...)
		reused.GK.Zero()
		reused.GB.Zero()
		requireBits(t, what+" dx", reused.Backward(grad).Data(), fresh.Backward(grad).Data())
		requireBits(t, what+" GK", reused.GK.Data(), fresh.GK.Data())
		requireBits(t, what+" GB", reused.GB.Data(), fresh.GB.Data())
	}
}
