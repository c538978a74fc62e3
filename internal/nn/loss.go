package nn

import (
	"fmt"
	"math"

	"fedmigr/internal/tensor"
)

// Softmax returns the row-wise softmax of logits (batch, classes) as a new
// tensor, computed with the max-subtraction trick for numerical stability.
func Softmax(logits *tensor.Tensor) *tensor.Tensor { return SoftmaxInto(nil, logits) }

// SoftmaxInto writes the row-wise softmax of logits into out (reshaped in
// place, see tensor.Ensure; nil allocates) and returns it.
func SoftmaxInto(out, logits *tensor.Tensor) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: Softmax requires (batch, classes), got %v", logits.Shape()))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	out = tensor.Ensure(out, n, c)
	ld, d := logits.Data(), out.Data()
	for i := 0; i < n; i++ {
		in, row := ld[i*c:(i+1)*c], d[i*c:(i+1)*c]
		m := in[0]
		for _, v := range in[1:] {
			if v > m {
				m = v
			}
		}
		s := 0.0
		for j, v := range in {
			e := math.Exp(v - m)
			row[j] = e
			s += e
		}
		for j := range row {
			row[j] /= s
		}
	}
	return out
}

// CrossEntropy computes the mean cross-entropy loss between logits
// (batch, classes) and integer class labels, returning the loss and the
// gradient dL/dlogits = (softmax - onehot)/batch, ready for Backward.
func CrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	return CrossEntropyInto(nil, logits, labels)
}

// CrossEntropyInto is CrossEntropy writing the gradient into grad
// (reshaped in place, see tensor.Ensure; nil allocates).
func CrossEntropyInto(grad, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropy got %d labels for batch of %d", len(labels), n))
	}
	grad = SoftmaxInto(grad, logits)
	gd := grad.Data()
	loss := 0.0
	for i, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		p := gd[i*c+y]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		gd[i*c+y] -= 1
	}
	grad.ScaleInPlace(1 / float64(n))
	return loss / float64(n), grad
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	if n == 0 {
		return 0
	}
	d := logits.Data()
	correct := 0
	for i, y := range labels {
		row := d[i*c : (i+1)*c]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		if bi == y {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// MSE computes the mean squared error between pred and target (same shape)
// and the gradient dL/dpred = 2(pred-target)/N.
func MSE(pred, target *tensor.Tensor) (loss float64, grad *tensor.Tensor) {
	if pred.Size() != target.Size() {
		panic(fmt.Sprintf("nn: MSE shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	n := float64(pred.Size())
	grad = pred.Sub(target)
	for _, v := range grad.Data() {
		loss += v * v
	}
	loss /= n
	grad.ScaleInPlace(2 / n)
	return loss, grad
}
