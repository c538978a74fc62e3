package nn

import "fedmigr/internal/tensor"

// SoftmaxLayer normalizes each row of a (batch, n) input onto the
// probability simplex. The DDPG actor ends in one so its deterministic
// action is a distribution over migration destinations.
type SoftmaxLayer struct {
	out, dx *tensor.Tensor
	trained bool
}

// NewSoftmaxLayer returns a row-wise softmax layer.
func NewSoftmaxLayer() *SoftmaxLayer { return &SoftmaxLayer{} }

// Forward implements Layer.
func (s *SoftmaxLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.out = SoftmaxInto(s.out, x)
	s.trained = train
	return s.out
}

// Backward implements Layer using the softmax Jacobian:
// dx_i = y_i · (g_i − Σ_j g_j · y_j) per row.
func (s *SoftmaxLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !s.trained {
		panic("nn: SoftmaxLayer.Backward without a training Forward")
	}
	n, c := grad.Dim(0), grad.Dim(1)
	s.dx = tensor.Ensure(s.dx, n, c)
	gd, yd, xd := grad.Data(), s.out.Data(), s.dx.Data()
	for i := 0; i < n; i++ {
		dot := 0.0
		for j := 0; j < c; j++ {
			dot += gd[i*c+j] * yd[i*c+j]
		}
		for j := 0; j < c; j++ {
			xd[i*c+j] = yd[i*c+j] * (gd[i*c+j] - dot)
		}
	}
	return s.dx
}

// Params implements Layer.
func (s *SoftmaxLayer) Params() ([]*tensor.Tensor, []*tensor.Tensor) { return nil, nil }

// Name implements Layer.
func (s *SoftmaxLayer) Name() string { return "Softmax" }
