package nn

import (
	"fmt"
	"math"

	"fedmigr/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch to zero mean and
// unit variance with learnable scale/shift, maintaining running statistics
// for inference. Its learnable γ/β and running mean/var are all part of
// Params so they migrate and aggregate with the rest of the model — the
// standard (if imperfect) treatment of BN statistics in FedAvg systems.
type BatchNorm2D struct {
	Gamma, Beta   *tensor.Tensor
	GGamma, GBeta *tensor.Tensor
	// RunMean and RunVar are the inference-time statistics.
	RunMean, RunVar *tensor.Tensor
	// Momentum is the running-statistics update rate (default 0.1).
	Momentum float64
	// Eps stabilizes the variance (default 1e-5).
	Eps float64

	// cached forward state; trained is false until a training Forward
	trained  bool
	mean     []float64
	invStd   []float64
	channels int

	out, xhat, dx *tensor.Tensor // owned buffers
}

// NewBatchNorm2D returns a batch-norm layer over c channels.
func NewBatchNorm2D(c int) *BatchNorm2D {
	return &BatchNorm2D{
		Gamma:    tensor.Ones(c),
		Beta:     tensor.New(c),
		GGamma:   tensor.New(c),
		GBeta:    tensor.New(c),
		RunMean:  tensor.New(c),
		RunVar:   tensor.Ones(c),
		Momentum: 0.1,
		Eps:      1e-5,
		channels: c,
	}
}

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != b.channels {
		panic(fmt.Sprintf("nn: BatchNorm2D over %d channels got input %v", b.channels, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	count := float64(n * plane)
	b.out = tensor.Ensure(b.out, n, c, h, w)
	xd, od := x.Data(), b.out.Data()
	b.trained = train

	if train {
		// Amortized scratch: channel count is fixed for the layer's
		// lifetime, so these allocate once and recycle thereafter.
		if cap(b.mean) < c {
			b.mean = make([]float64, c)
			b.invStd = make([]float64, c)
		}
		b.mean, b.invStd = b.mean[:c], b.invStd[:c]
		b.xhat = tensor.Ensure(b.xhat, n, c, h, w)
		xh := b.xhat.Data()
		for ci := 0; ci < c; ci++ {
			sum := 0.0
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * plane
				for i := 0; i < plane; i++ {
					sum += xd[base+i]
				}
			}
			mean := sum / count
			varSum := 0.0
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * plane
				for i := 0; i < plane; i++ {
					dv := xd[base+i] - mean
					varSum += dv * dv
				}
			}
			variance := varSum / count
			invStd := 1 / math.Sqrt(variance+b.Eps)
			b.mean[ci], b.invStd[ci] = mean, invStd
			// Update running statistics.
			b.RunMean.Data()[ci] = (1-b.Momentum)*b.RunMean.Data()[ci] + b.Momentum*mean
			b.RunVar.Data()[ci] = (1-b.Momentum)*b.RunVar.Data()[ci] + b.Momentum*variance
			g, be := b.Gamma.Data()[ci], b.Beta.Data()[ci]
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * plane
				for i := 0; i < plane; i++ {
					xhv := (xd[base+i] - mean) * invStd
					xh[base+i] = xhv
					od[base+i] = g*xhv + be
				}
			}
		}
		return b.out
	}

	for ci := 0; ci < c; ci++ {
		mean := b.RunMean.Data()[ci]
		invStd := 1 / math.Sqrt(b.RunVar.Data()[ci]+b.Eps)
		g, be := b.Gamma.Data()[ci], b.Beta.Data()[ci]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for i := 0; i < plane; i++ {
				od[base+i] = g*(xd[base+i]-mean)*invStd + be
			}
		}
	}
	return b.out
}

// Backward implements Layer with the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !b.trained {
		panic("nn: BatchNorm2D.Backward without a training Forward")
	}
	n, c := grad.Dim(0), grad.Dim(1)
	plane := grad.Dim(2) * grad.Dim(3)
	count := float64(n * plane)
	b.dx = tensor.Ensure(b.dx, grad.Shape()...)
	gd, xh, dxd := grad.Data(), b.xhat.Data(), b.dx.Data()
	for ci := 0; ci < c; ci++ {
		var sumG, sumGX float64
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for i := 0; i < plane; i++ {
				sumG += gd[base+i]
				sumGX += gd[base+i] * xh[base+i]
			}
		}
		b.GBeta.Data()[ci] += sumG
		b.GGamma.Data()[ci] += sumGX
		g := b.Gamma.Data()[ci]
		invStd := b.invStd[ci]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for i := 0; i < plane; i++ {
				dxd[base+i] = g * invStd / count *
					(count*gd[base+i] - sumG - xh[base+i]*sumGX)
			}
		}
	}
	return b.dx
}

// Params implements Layer. Running statistics are exposed as parameters so
// they serialize, migrate and aggregate with the model, but their gradient
// slots are nil: optimizers skip nil-gradient parameters entirely, so the
// statistics are only ever changed by Forward and by aggregation.
func (b *BatchNorm2D) Params() ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{b.Gamma, b.Beta, b.RunMean, b.RunVar},
		[]*tensor.Tensor{b.GGamma, b.GBeta, nil, nil}
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return fmt.Sprintf("BatchNorm2D(%d)", b.channels) }
