// Package tensor implements dense row-major float64 tensors and the
// numerical kernels (matrix multiply, convolution, pooling, elementwise
// arithmetic, reductions) that the nn package builds neural networks on.
//
// The package is deliberately small and allocation-conscious: every shape
// is a plain []int, data is a single contiguous []float64, and all kernels
// are written against flat indices so they stay fast on a single core.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major array of float64 values.
//
// The zero value is an empty tensor; use New, Zeros, or FromSlice to build
// usable tensors. Data is shared on plain assignment; use Clone for a deep
// copy.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor { return Ensure(nil, shape...) }

// Ensure returns a tensor of the given shape for the caller to overwrite:
// t itself, resliced, when its capacity suffices (its contents are then
// unspecified), a fresh zero-filled tensor otherwise (always for nil t).
// It is how layers and kernels keep one buffer across batches: storage
// grows to the largest batch seen and is never reallocated below that.
// It panics if any dimension is negative.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Formatting a copy keeps shape on the caller's stack.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	if t == nil || cap(t.data) < n {
		return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
	}
	t.shape, t.data = append(t.shape[:0], shape...), t.data[:n]
	return t
}

// Zeros is an alias for New, provided for readability at call sites.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying flat storage. Mutations are visible to every
// tensor sharing the storage.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.flat(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.flat(idx)] = v }

func (t *Tensor) flat(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank-%d shape %v", idx, len(t.shape), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape of the same
// total size. One dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor { return t.ReshapeInto(nil, shape...) }

// ReshapeInto is Reshape with a reusable view header: v (nil allocates) is
// pointed at t's storage with the new shape and returned, so a caller that
// reshapes the same buffer every step keeps one header.
func (t *Tensor) ReshapeInto(v *Tensor, shape ...int) *Tensor {
	if v == nil {
		v = &Tensor{}
	}
	dims := append(v.shape[:0], shape...) // a copy: shape stays on the caller's stack
	infer, n := -1, 1
	for i, d := range dims {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: at most one -1 dimension allowed in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, dims))
		}
		dims[infer] = len(t.data) / n
		n *= dims[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), dims, n))
	}
	v.shape, v.data = dims, t.data
	return v
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// CopyFrom copies o's data into t. The shapes must match in total size.
func (t *Tensor) CopyFrom(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v%v", t.shape, t.data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v[%d elems, mean=%.4g]", t.shape, len(t.data), t.Mean())
}

// --- elementwise arithmetic -------------------------------------------------

func (t *Tensor) check(o *Tensor, op string) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// AddInPlace adds o to t elementwise and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.check(o, "add")
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// SubInPlace subtracts o from t elementwise and returns t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.check(o, "sub")
	for i, v := range o.data {
		t.data[i] -= v
	}
	return t
}

// MulInPlace multiplies t by o elementwise and returns t.
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	t.check(o, "mul")
	for i, v := range o.data {
		t.data[i] *= v
	}
	return t
}

// ScaleInPlace multiplies every element of t by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScaledInPlace adds s*o to t elementwise (axpy) and returns t.
func (t *Tensor) AddScaledInPlace(o *Tensor, s float64) *Tensor {
	t.check(o, "addScaled")
	for i, v := range o.data {
		t.data[i] += float64(s * v)
	}
	return t
}

// Add returns t + o as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Mul returns the elementwise product t ⊙ o as a new tensor.
func (t *Tensor) Mul(o *Tensor) *Tensor { return t.Clone().MulInPlace(o) }

// Scale returns s*t as a new tensor.
func (t *Tensor) Scale(s float64) *Tensor { return t.Clone().ScaleInPlace(s) }

// Apply replaces every element x of t with f(x) and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Map returns a new tensor with f applied to every element.
func (t *Tensor) Map(f func(float64) float64) *Tensor { return t.Clone().Apply(f) }

// --- reductions --------------------------------------------------------------

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Norm2 returns the Euclidean (L2) norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of the flattened tensors.
func (t *Tensor) Dot(o *Tensor) float64 {
	t.check(o, "dot")
	s := 0.0
	for i, v := range t.data {
		s += float64(v * o.data[i])
	}
	return s
}

// --- matrix operations --------------------------------------------------------

// The three GEMMs come in destination-passing form: c is reshaped in place
// when its capacity suffices (see Ensure; nil allocates), every element of
// it is overwritten — nothing relies on zeroed memory — and it is returned.
// All three run one kernel (gemm.go), which never reorders a sum: each
// c[i][j] is still +0 plus its terms in ascending p, so results are
// bit-identical to the textbook loops for any kernel body, worker count or
// destination history.

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) *Tensor { return MatMulInto(nil, a, b) }

// MatMulInto computes C = A·B into c. Terms whose A multiplicand is zero
// are skipped (so 0·Inf contributes nothing, and sparse gradients are cheap).
func MatMulInto(c, a, b *Tensor) *Tensor { return matMulInto(c, a, b, false) }

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n).
func MatMulTransA(a, b *Tensor) *Tensor { return MatMulTransAInto(nil, a, b) }

// MatMulTransAInto computes C = Aᵀ·B into c, with MatMulInto's zero skip.
func MatMulTransAInto(c, a, b *Tensor) *Tensor { return matMulInto(c, a, b, true) }

// matMulInto is MatMulInto (A is m×k) or MatMulTransAInto (A is k×m): the two
// differ only in how they step through A.
func matMulInto(c, a, b *Tensor, transA bool) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 tensors, got %v × %v", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	ai, ap := k, 1 // A(i,p) = a[i·ai + p·ap]
	if transA {
		m, k, ai, ap = k, m, 1, k
	}
	if k != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v (transA=%v)", a.shape, b.shape, transA))
	}
	c = Ensure(c, m, n)
	// Output rows are independent, so the parallel split is over i.
	if serial(m * k * n) {
		gemmRows(c.data, a.data, ai, ap, b.data, k, n, false, 0, m)
	} else {
		parFor(m, m*k*n, func(lo, hi int) { gemmRows(c.data, a.data, ai, ap, b.data, k, n, false, lo, hi) })
	}
	return c
}

// MatMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k).
func MatMulTransB(a, b *Tensor) *Tensor { return MatMulTransBInto(nil, a, b) }

// MatMulTransBInto computes C = A·Bᵀ into c. Unlike MatMulInto it skips no
// term: a zero in A times an Inf or NaN in B makes a NaN.
func MatMulTransBInto(c, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires rank-2 tensors")
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v × %vᵀ", a.shape, b.shape))
	}
	c = Ensure(c, m, n)
	if serial(m * k * n) {
		gemmRows(c.data, a.data, k, 1, b.data, k, n, true, 0, m)
	} else {
		parFor(m, m*k*n, func(lo, hi int) { gemmRows(c.data, a.data, k, 1, b.data, k, n, true, lo, hi) })
	}
	return c
}

// Transpose returns the transpose of a 2-D tensor as a new tensor.
func (t *Tensor) Transpose() *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := t.shape[0], t.shape[1]
	o := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			o.data[j*m+i] = t.data[i*n+j]
		}
	}
	return o
}

// Row returns row i of a 2-D tensor as a view sharing storage.
func (t *Tensor) Row(i int) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	n := t.shape[1]
	return &Tensor{shape: []int{n}, data: t.data[i*n : (i+1)*n]}
}

// AddRowVector adds the length-n vector v to each row of the m×n tensor t.
func (t *Tensor) AddRowVector(v *Tensor) *Tensor {
	if t.Rank() != 2 || v.Size() != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector shape mismatch %v + %v", t.shape, v.shape))
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, x := range v.data {
			row[j] += x
		}
	}
	return t
}

// SumRows returns the length-n column sums of an m×n tensor.
func (t *Tensor) SumRows() *Tensor { return t.SumRowsInto(nil) }

// SumRowsInto writes the column sums of an m×n tensor into o (reshaped to
// length n; nil allocates) and returns it.
func (t *Tensor) SumRowsInto(o *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: SumRows requires a rank-2 tensor")
	}
	m, n := t.shape[0], t.shape[1]
	o = Ensure(o, n)
	clear(o.data)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, x := range row {
			o.data[j] += x
		}
	}
	return o
}
