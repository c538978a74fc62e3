// Package nn is a hotalloc fixture, loaded under the fedmigr/internal/nn
// import path so the layer rule (no fresh tensors in Forward/Backward)
// applies.
package nn

import "fedmigr/internal/tensor"

// Scale is a layer in the pre-ownership style: every step clones.
type Scale struct {
	out *tensor.Tensor
}

// Forward allocates its output twice over: both calls fire.
func (s *Scale) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x.Clone()                // want `tensor.Clone in a layer's Forward/Backward`
	z := tensor.New(x.Shape()...) // want `tensor.New in a layer's Forward/Backward`
	z.CopyFrom(y)
	return z
}

// Backward uses the copying arithmetic: fires.
func (s *Scale) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Add(grad) // want `tensor.Add in a layer's Forward/Backward`
}

// accumulate is the parameter half of a split Backward: fires.
func (s *Scale) accumulate(grad *tensor.Tensor) {
	s.out = grad.Sub(grad) // want `tensor.Sub in a layer's Forward/Backward`
}

// InputGrad is the input half of a split Backward: fires.
func (s *Scale) InputGrad(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Clone() // want `tensor.Clone in a layer's Forward/Backward`
}

// Owned is the sanctioned shape: a layer-owned buffer reshaped in place.
type Owned struct {
	out *tensor.Tensor
}

// Forward reuses its buffer through tensor.Ensure: exempt.
func (o *Owned) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	o.out = tensor.Ensure(o.out, x.Shape()...)
	o.out.CopyFrom(x)
	return o.out
}

// NewOwned is a constructor: allocating at model-build time is fine.
func NewOwned(n int) *Owned { return &Owned{out: tensor.New(n)} }

// Forward as a plain function is not a layer method: the rule is about
// the per-step Layer interface, so this does not fire.
func Forward(x *tensor.Tensor) *tensor.Tensor { return x.Clone() }

// Cold documents a sanctioned allocation: the suppression is load-bearing
// for TestFixtureSuppressions.
type Cold struct{}

// Forward runs once per session, not per step.
func (Cold) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	//lint:ignore hotalloc one-shot extractor pass, not on the step path
	return x.Map(func(v float64) float64 { return v })
}
