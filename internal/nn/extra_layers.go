package nn

import (
	"fmt"

	"fedmigr/internal/tensor"
)

// Dropout randomly zeroes a fraction of activations during training and
// scales the survivors by 1/(1−p) (inverted dropout), so inference needs
// no rescaling.
type Dropout struct {
	// P is the drop probability in [0, 1).
	P       float64
	rng     *tensor.RNG
	mask    []float64
	out, dx *tensor.Tensor
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(p float64, seed int64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v outside [0,1)", p))
	}
	return &Dropout{P: p, rng: tensor.NewRNG(seed)}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		return x
	}
	d.out = tensor.Ensure(d.out, x.Shape()...)
	if cap(d.mask) < x.Size() {
		d.mask = make([]float64, x.Size())
	}
	d.mask = d.mask[:x.Size()]
	scale := 1 / (1 - d.P)
	yd := d.out.Data()
	for i, v := range x.Data() {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
			yd[i] = 0
		} else {
			d.mask[i] = scale
			yd[i] = v * scale
		}
	}
	return d.out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.P == 0 {
		return grad
	}
	d.dx = tensor.Ensure(d.dx, grad.Shape()...)
	dxd := d.dx.Data()
	for i, g := range grad.Data() {
		dxd[i] = g * d.mask[i]
	}
	return d.dx
}

// Params implements Layer.
func (d *Dropout) Params() ([]*tensor.Tensor, []*tensor.Tensor) { return nil, nil }

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("Dropout(%.2f)", d.P) }

// AvgPool2D is average pooling over square windows — the global-pooling
// stage of residual networks.
type AvgPool2D struct {
	P       tensor.ConvParams
	inShape []int
	out, dx *tensor.Tensor
}

// NewAvgPool2D returns an average-pooling layer with a square window.
func NewAvgPool2D(k, stride int) *AvgPool2D {
	return &AvgPool2D{P: tensor.ConvParams{KernelH: k, KernelW: k, StrideH: stride, StrideW: stride}}
}

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: AvgPool2D requires NCHW input, got %v", x.Shape()))
	}
	if train {
		a.inShape = append(a.inShape[:0], x.Shape()...)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := a.P.OutSize(h, w)
	a.out = tensor.Ensure(a.out, n, c, oh, ow)
	area := float64(a.P.KernelH * a.P.KernelW)
	xd, od := x.Data(), a.out.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ky := 0; ky < a.P.KernelH; ky++ {
						iy := oy*a.P.StrideH + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < a.P.KernelW; kx++ {
							ix := ox*a.P.StrideW + kx
							if ix >= w {
								continue
							}
							s += xd[base+iy*w+ix]
						}
					}
					od[((ni*c+ci)*oh+oy)*ow+ox] = s / area
				}
			}
		}
	}
	return a.out
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := a.inShape[0], a.inShape[1], a.inShape[2], a.inShape[3]
	oh, ow := a.P.OutSize(h, w)
	a.dx = tensor.Ensure(a.dx, a.inShape...)
	a.dx.Zero() // the scatter below accumulates
	area := float64(a.P.KernelH * a.P.KernelW)
	gd, xd := grad.Data(), a.dx.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gd[((ni*c+ci)*oh+oy)*ow+ox] / area
					for ky := 0; ky < a.P.KernelH; ky++ {
						iy := oy*a.P.StrideH + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < a.P.KernelW; kx++ {
							ix := ox*a.P.StrideW + kx
							if ix >= w {
								continue
							}
							xd[base+iy*w+ix] += g
						}
					}
				}
			}
		}
	}
	return a.dx
}

// Params implements Layer.
func (a *AvgPool2D) Params() ([]*tensor.Tensor, []*tensor.Tensor) { return nil, nil }

// Name implements Layer.
func (a *AvgPool2D) Name() string {
	return fmt.Sprintf("AvgPool2D(%dx%d/s%d)", a.P.KernelH, a.P.KernelW, a.P.StrideH)
}

// LRSchedule adjusts an optimizer's learning rate by epoch.
type LRSchedule interface {
	// LR returns the learning rate for the given zero-based epoch.
	LR(epoch int) float64
}

// StepLR multiplies the base rate by Gamma every StepSize epochs.
type StepLR struct {
	Base     float64
	StepSize int
	Gamma    float64
}

// LR implements LRSchedule.
func (s StepLR) LR(epoch int) float64 {
	if s.StepSize <= 0 {
		return s.Base
	}
	lr := s.Base
	for e := s.StepSize; e <= epoch; e += s.StepSize {
		lr *= s.Gamma
	}
	return lr
}

// ConstantLR always returns the base rate.
type ConstantLR struct{ Base float64 }

// LR implements LRSchedule.
func (c ConstantLR) LR(int) float64 { return c.Base }

// InverseDecayLR implements the classic 1/(1+decay·epoch) schedule used by
// SGD convergence analyses.
type InverseDecayLR struct {
	Base  float64
	Decay float64
}

// LR implements LRSchedule.
func (d InverseDecayLR) LR(epoch int) float64 {
	return d.Base / (1 + d.Decay*float64(epoch))
}
