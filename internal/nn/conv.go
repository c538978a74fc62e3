package nn

import (
	"fmt"

	"fedmigr/internal/tensor"
)

// Conv2D is a 2-D convolution layer over NCHW batches with kernels of
// shape (filters, inChannels, kh, kw) and a per-filter bias.
type Conv2D struct {
	K, B   *tensor.Tensor
	GK, GB *tensor.Tensor
	P      tensor.ConvParams

	inShape []int            // input geometry of the last training Forward (empty: none)
	pm      *tensor.PanelMap // im2col index map of the last Forward's C, H, W

	// Owned buffers: the im2col panel, K viewed as a (F, C·KH·KW) matrix,
	// the (N·OH·OW, F) product and its NCHW rearrangement, and the backward
	// temporaries.
	cols, kmat, prod, out *tensor.Tensor
	gm, dk, db, dcols, dx *tensor.Tensor
}

// NewConv2D returns a Conv2D layer with He-initialized kernels.
func NewConv2D(g *tensor.RNG, inC, outC, kh, kw, stride, pad int) *Conv2D {
	fanIn := inC * kh * kw
	return &Conv2D{
		K:  tensor.HeNormal(g, fanIn, outC, inC, kh, kw),
		B:  tensor.New(outC),
		GK: tensor.New(outC, inC, kh, kw),
		GB: tensor.New(outC),
		P:  tensor.ConvParams{KernelH: kh, KernelW: kw, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad},
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := c.K.Dim(0)
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.P.OutSize(h, w)
	if train {
		c.inShape = append(c.inShape[:0], x.Shape()...)
	} else {
		c.inShape = c.inShape[:0]
	}
	if !c.pm.Matches(x.Dim(1), h, w, c.P) {
		c.pm = tensor.NewPanelMap(x.Dim(1), h, w, c.P)
	}
	c.cols = tensor.Im2ColInto(c.cols, x, c.pm) // (N*OH*OW, C*KH*KW)
	c.kmat = c.K.ReshapeInto(c.kmat, f, c.cols.Dim(1))
	c.prod = tensor.MatMulTransBInto(c.prod, c.cols, c.kmat) // (N*OH*OW, F)
	c.out = tensor.Ensure(c.out, n, f, oh, ow)
	// Rearrange (N*OH*OW, F) to (N,F,OH,OW), adding the bias.
	od, rd, bd, ohw := c.prod.Data(), c.out.Data(), c.B.Data()[:f], oh*ow
	for ni := 0; ni < n; ni++ {
		dst := rd[ni*f*ohw : (ni+1)*f*ohw]
		for pos := 0; pos < ohw; pos++ {
			row := od[(ni*ohw+pos)*f:][:f]
			for fi, b := range bd {
				dst[fi*ohw+pos] = row[fi] + b
			}
		}
	}
	return c.out
}

// Backward implements Layer: accumulate, then the input gradient.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.accumulate(grad)
	return c.colGrad()
}

// accumulate adds dK and db to GK and GB: the parameter half of Backward,
// which Sequential.Backward runs alone on a model's lowest parameterised
// layer.
func (c *Conv2D) accumulate(grad *tensor.Tensor) {
	c.loadGrad(grad)
	// dK = gmᵀ · cols, (F, C*KH*KW) like the kernel; db = column sums of gm.
	c.dk = tensor.MatMulTransAInto(c.dk, c.gm, c.cols)
	c.GK.AddInPlace(c.dk)
	c.db = c.gm.SumRowsInto(c.db)
	c.GB.AddInPlace(c.db)
}

// InputGrad returns dL/din and leaves GK and GB untouched: the input half
// of Backward, for Sequential.InputGrad. Like Backward it needs a training
// Forward, which records the input geometry.
func (c *Conv2D) InputGrad(grad *tensor.Tensor) *tensor.Tensor {
	c.loadGrad(grad)
	return c.colGrad()
}

// loadGrad rearranges grad (N,F,OH,OW) into gm, (N*OH*OW, F).
func (c *Conv2D) loadGrad(grad *tensor.Tensor) {
	if len(c.inShape) == 0 {
		panic("nn: Conv2D.Backward without a training Forward")
	}
	f := c.K.Dim(0)
	n, h, w := c.inShape[0], c.inShape[2], c.inShape[3]
	oh, ow := c.P.OutSize(h, w)
	c.gm = tensor.Ensure(c.gm, n*oh*ow, f)
	gd, gmd, ohw := grad.Data(), c.gm.Data(), oh*ow
	for ni := 0; ni < n; ni++ {
		dst := gmd[ni*ohw*f : (ni+1)*ohw*f]
		for fi := 0; fi < f; fi++ {
			for pos, g := range gd[(ni*f+fi)*ohw:][:ohw] {
				dst[pos*f+fi] = g
			}
		}
	}
}

// colGrad returns dx = Col2Im(gm · kmat) for the loaded gm.
func (c *Conv2D) colGrad() *tensor.Tensor {
	c.dcols = tensor.MatMulInto(c.dcols, c.gm, c.kmat)
	c.dx = tensor.Col2ImInto(tensor.Ensure(c.dx, c.inShape...), c.dcols, c.pm)
	return c.dx
}

// Params implements Layer.
func (c *Conv2D) Params() ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{c.K, c.B}, []*tensor.Tensor{c.GK, c.GB}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%d→%d, %dx%d/s%d)", c.K.Dim(1), c.K.Dim(0), c.P.KernelH, c.P.KernelW, c.P.StrideH)
}

// MaxPool2D is a max-pooling layer.
type MaxPool2D struct {
	P       tensor.ConvParams
	arg     []int
	out, dx *tensor.Tensor
	inShape []int
}

// NewMaxPool2D returns a max-pooling layer with a square window.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	return &MaxPool2D{P: tensor.ConvParams{KernelH: k, KernelW: k, StrideH: stride, StrideW: stride}}
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.out, m.arg = tensor.MaxPool2DInto(m.out, m.arg, x, m.P)
	if train {
		m.inShape = append(m.inShape[:0], x.Shape()...)
	}
	return m.out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	m.dx = tensor.MaxPool2DBackwardInto(tensor.Ensure(m.dx, m.inShape...), grad, m.arg)
	return m.dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() ([]*tensor.Tensor, []*tensor.Tensor) { return nil, nil }

// Name implements Layer.
func (m *MaxPool2D) Name() string {
	return fmt.Sprintf("MaxPool2D(%dx%d/s%d)", m.P.KernelH, m.P.KernelW, m.P.StrideH)
}

// Residual wraps an inner stack of layers with an identity skip
// connection: y = x + F(x). The inner stack must preserve shape. It is the
// building block of the ResLite model standing in for ResNet-152.
type Residual struct {
	Body    []Layer
	out, dx *tensor.Tensor
}

// NewResidual returns a residual block around the given body layers.
func NewResidual(body ...Layer) *Residual { return &Residual{Body: body} }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x
	for _, l := range r.Body {
		y = l.Forward(y, train)
	}
	if !y.SameShape(x) {
		panic(fmt.Sprintf("nn: Residual body changed shape %v → %v", x.Shape(), y.Shape()))
	}
	r.out = sumInto(r.out, y, x)
	return r.out
}

// Backward implements Layer.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := grad
	for i := len(r.Body) - 1; i >= 0; i-- {
		g = r.Body[i].Backward(g)
	}
	r.dx = sumInto(r.dx, g, grad)
	return r.dx
}

// InputGrad returns dL/din = grad + the body's input gradient and leaves
// every accumulator in the body untouched, so Sequential.InputGrad runs
// through residual networks. Every body layer with parameters must have an
// InputGrad, as in Sequential.InputGrad.
func (r *Residual) InputGrad(grad *tensor.Tensor) *tensor.Tensor {
	g := grad
	for i := len(r.Body) - 1; i >= 0; i-- {
		g = inputGrad(r.Body[i], g)
	}
	r.dx = sumInto(r.dx, g, grad)
	return r.dx
}

// sumInto writes a + b into dst (reshaped like a, see tensor.Ensure).
func sumInto(dst, a, b *tensor.Tensor) *tensor.Tensor {
	dst = tensor.Ensure(dst, a.Shape()...)
	dd, bd := dst.Data(), b.Data()
	for i, v := range a.Data() {
		dd[i] = v + bd[i]
	}
	return dst
}

// Params implements Layer.
func (r *Residual) Params() ([]*tensor.Tensor, []*tensor.Tensor) {
	var ps, gs []*tensor.Tensor
	for _, l := range r.Body {
		p, g := l.Params()
		ps = append(ps, p...)
		gs = append(gs, g...)
	}
	return ps, gs
}

// Name implements Layer.
func (r *Residual) Name() string { return fmt.Sprintf("Residual(%d layers)", len(r.Body)) }
