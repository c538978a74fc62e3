// Package nn is a small neural-network library built on internal/tensor.
//
// It provides the layers, losses and optimizers needed to train the paper's
// federated models (C10-CNN, C100-CNN, ResLite) and the DDPG actor/critic
// networks, plus parameter serialization so models can be "migrated"
// between clients with realistic byte-level traffic accounting.
package nn

import (
	"fmt"
	"math"

	"fedmigr/internal/tensor"
)

// Layer is a differentiable network stage.
//
// Forward consumes an input batch and returns the output batch, caching
// whatever it needs for Backward. Backward consumes the gradient of the
// loss w.r.t. its output and returns the gradient w.r.t. its input,
// accumulating parameter gradients internally.
//
// A layer with parameters may split Backward in two: an InputGrad method
// (the input gradient alone, accumulating nothing), which
// Sequential.InputGrad requires of every such layer, and an unexported
// accumulate (the parameter gradients alone), which Sequential.Backward
// runs instead of Backward on a model's lowest parameterised layer. Dense,
// Conv2D and, for InputGrad, Residual do.
//
// Gradient accumulators hold +0 between optimizer steps: a layer
// allocates them zeroed, Backward adds into them, and SGD.Step and
// Adam.Step clear each one as they consume it. Training loops rely on it
// and call no ZeroGrad, so a layer must never leave an accumulator nonzero
// outside a Backward → Step pair.
//
// Ownership: every layer owns its outputs. A tensor returned by Forward or
// Backward lives in a buffer of that layer — grown only when a batch needs
// more capacity than it has, so a steady-state step allocates nothing — and
// is valid until that layer's next Forward or Backward respectively. A
// layer writes only to its own buffers, never to its input (a Residual
// block and the layer above both still hold it); a caller that keeps a
// result across calls copies it; a model is used by one goroutine at a time.
type Layer interface {
	// Forward runs the layer on a batch. If train is false the layer must
	// not cache state and may use inference-only behaviour.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward back-propagates grad (dL/dout) and returns dL/din.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters and their gradient
	// accumulators, in a stable order: one accumulator per parameter, of
	// the parameter's shape and never nil. Stateless layers return nil
	// slices.
	Params() ([]*tensor.Tensor, []*tensor.Tensor)
	// Name identifies the layer kind for debugging and serialization.
	Name() string
}

// Dense is a fully connected layer: y = x·Wᵀ + b with x of shape
// (batch, in) and W of shape (out, in).
type Dense struct {
	W, B   *tensor.Tensor
	GW, GB *tensor.Tensor
	in     *tensor.Tensor

	out, dx, dw, db *tensor.Tensor // owned buffers
}

// NewDense returns a Dense layer with Xavier-initialized weights.
func NewDense(g *tensor.RNG, in, out int) *Dense {
	return &Dense{
		W:  tensor.XavierUniform(g, in, out, out, in),
		B:  tensor.New(out),
		GW: tensor.New(out, in),
		GB: tensor.New(out),
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		d.in = x
	} else {
		d.in = nil
	}
	d.out = tensor.MatMulTransBInto(d.out, x, d.W)
	return d.out.AddRowVector(d.B)
}

// Backward implements Layer: accumulate, then InputGrad.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.accumulate(grad)
	return d.InputGrad(grad)
}

// accumulate adds dW = gradᵀ · x and db = column sums of grad to GW and
// GB: the parameter half of Backward, which Sequential.Backward runs alone
// on a model's lowest parameterised layer.
func (d *Dense) accumulate(grad *tensor.Tensor) {
	if d.in == nil {
		panic("nn: Dense.Backward without a training Forward")
	}
	d.dw = tensor.MatMulTransAInto(d.dw, grad, d.in)
	d.GW.AddInPlace(d.dw)
	d.db = grad.SumRowsInto(d.db)
	d.GB.AddInPlace(d.db)
}

// InputGrad returns dL/din = grad · W and leaves GW and GB untouched: the
// input half of Backward, for Sequential.InputGrad. It needs no training
// Forward, since dx depends on W alone.
func (d *Dense) InputGrad(grad *tensor.Tensor) *tensor.Tensor {
	d.dx = tensor.MatMulInto(d.dx, grad, d.W)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{d.W, d.B}, []*tensor.Tensor{d.GW, d.GB}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.W.Dim(1), d.W.Dim(0)) }

// ReLU applies max(0, x) elementwise. Its own output doubles as the
// backward mask: out > 0 exactly where the input was.
//
// Both passes keep a value where the comparison holds and write +0
// elsewhere (NaN, ±0 and negatives alike), through a compare-produced bit
// mask instead of a branch: the sign of an activation is data, and a
// branch on it mispredicts about half the time.
type ReLU struct {
	out, dx *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape()...)
	xd := x.Data()
	yd := r.out.Data()[:len(xd)]
	for i, v := range xd {
		yd[i] = math.Float64frombits(math.Float64bits(v) & -b2u(v > 0))
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.Ensure(r.dx, grad.Shape()...)
	gd := grad.Data()
	yd, dxd := r.out.Data()[:len(gd)], r.dx.Data()[:len(gd)]
	for i, g := range gd {
		dxd[i] = math.Float64frombits(math.Float64bits(g) & -b2u(yd[i] > 0))
	}
	return r.dx
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a SETcc, so
// -b2u(cond) is an all-ones or all-zeros select mask without a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// Params implements Layer.
func (r *ReLU) Params() ([]*tensor.Tensor, []*tensor.Tensor) { return nil, nil }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Tanh applies the hyperbolic tangent elementwise; its backward pass
// scales the gradient by 1 − tanh², read from the cached output.
type Tanh struct {
	out, dx *tensor.Tensor
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t.out = tensor.Ensure(t.out, x.Shape()...)
	yd := t.out.Data()
	for i, v := range x.Data() {
		yd[i] = math.Tanh(v)
	}
	return t.out
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t.dx = tensor.Ensure(t.dx, grad.Shape()...)
	yd, dxd := t.out.Data(), t.dx.Data()
	for i, g := range grad.Data() {
		dxd[i] = g * (1 - yd[i]*yd[i])
	}
	return t.dx
}

// Params implements Layer.
func (t *Tanh) Params() ([]*tensor.Tensor, []*tensor.Tensor) { return nil, nil }

// Name implements Layer.
func (t *Tanh) Name() string { return "Tanh" }

// Flatten reshapes (N, ...) to (N, prod(...)). Its outputs are views of
// its inputs; it owns (and reuses) only the two view headers.
type Flatten struct {
	inShape []int
	out, dx *tensor.Tensor
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = append(f.inShape[:0], x.Shape()...)
	}
	f.out = x.ReshapeInto(f.out, x.Dim(0), -1)
	return f.out
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	f.dx = grad.ReshapeInto(f.dx, f.inShape...)
	return f.dx
}

// Params implements Layer.
func (f *Flatten) Params() ([]*tensor.Tensor, []*tensor.Tensor) { return nil, nil }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }
