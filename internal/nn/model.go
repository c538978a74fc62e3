package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"fedmigr/internal/tensor"
	"fedmigr/internal/wire"
)

// Sequential chains layers into a model and owns the training plumbing
// (forward, backward, parameter access, serialization). Like its layers
// (see Layer) it is used by one goroutine at a time.
type Sequential struct {
	Layers []Layer

	// ps/gs cache the flattened parameter lists of the first listed layers;
	// bottom is the index of the lowest of them with parameters, or listed
	// when none has any.
	ps, gs []*tensor.Tensor
	listed int
	bottom int

	in, lossGrad *tensor.Tensor // owned buffers, see Input and CrossEntropy
}

// NewSequential returns a model running the given layers in order.
func NewSequential(layers ...Layer) *Sequential {
	m := &Sequential{Layers: layers}
	m.Params() // built here, so concurrent readers of a finished model never write
	return m
}

// Forward runs all layers. With train=true intermediate state is cached
// for a subsequent Backward. The result is owned by the last layer (see
// Layer): copy it to keep it across another Forward.
func (m *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward back-propagates the loss gradient (dL/d output) and adds every
// parameter's gradient to its accumulator. It computes no input gradient:
// it stops at the lowest layer with parameters, running only that layer's
// parameter half where it has one (see Layer), and skips the layers below
// it, because no parameter reads a gradient computed there. For dL/d input
// call InputGrad after Backward, with the same grad; it gives the bits a
// full back-propagation would.
func (m *Sequential) Backward(grad *tensor.Tensor) {
	m.Params() // keeps bottom current if Layers grew
	for i := len(m.Layers) - 1; i > m.bottom; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	if m.bottom == len(m.Layers) {
		return
	}
	switch l := m.Layers[m.bottom].(type) {
	case interface{ accumulate(*tensor.Tensor) }:
		l.accumulate(grad)
	default:
		l.Backward(grad)
	}
}

// InputGrad back-propagates grad to the model's input and leaves every
// gradient accumulator untouched: it asks "how does the output move with
// the input" of the model as it stands (DDPG's ∇aQ probe of the critic),
// and, after a Backward, returns the input gradient that step implies.
// Parameter-free layers run their Backward; a layer with parameters must
// provide InputGrad (Dense, Conv2D and Residual do) or InputGrad panics.
// The result is owned by the first layer (see Layer).
func (m *Sequential) InputGrad(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = inputGrad(m.Layers[i], grad)
	}
	return grad
}

// inputGrad is one layer's step of InputGrad.
func inputGrad(l Layer, grad *tensor.Tensor) *tensor.Tensor {
	if l, ok := l.(interface {
		InputGrad(*tensor.Tensor) *tensor.Tensor
	}); ok {
		return l.InputGrad(grad)
	}
	if ps, _ := l.Params(); len(ps) > 0 {
		panic(fmt.Sprintf("nn: InputGrad through %s, a layer with parameters but no InputGrad", l.Name()))
	}
	return l.Backward(grad)
}

// Input returns the model's own input buffer with the given shape, for a
// mini-batch loop to fill (data.Dataset.BatchInto) and pass to Forward: one
// batch buffer per model, grown only when a batch outgrows it.
func (m *Sequential) Input(shape ...int) *tensor.Tensor {
	m.in = tensor.Ensure(m.in, shape...)
	return m.in
}

// CrossEntropy is CrossEntropyInto on the model's own gradient buffer: the
// returned gradient is valid until the model's next CrossEntropy.
func (m *Sequential) CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	var loss float64
	loss, m.lossGrad = CrossEntropyInto(m.lossGrad, logits, labels)
	return loss, m.lossGrad
}

// Params returns all learnable parameters and matching gradient buffers.
// The lists are built once (and again only if Layers changed length) and
// shared by every call: treat them as read-only.
func (m *Sequential) Params() ([]*tensor.Tensor, []*tensor.Tensor) {
	if m.listed != len(m.Layers) || m.ps == nil {
		m.ps, m.gs = []*tensor.Tensor{}, []*tensor.Tensor{}
		m.bottom = len(m.Layers)
		for i, l := range m.Layers {
			p, g := l.Params()
			if len(p) > 0 && m.bottom == len(m.Layers) {
				m.bottom = i
			}
			m.ps = append(m.ps, p...)
			m.gs = append(m.gs, g...)
		}
		m.listed = len(m.Layers)
	}
	return m.ps, m.gs
}

// ZeroGrad clears all gradient accumulators.
func (m *Sequential) ZeroGrad() {
	_, gs := m.Params()
	for _, g := range gs {
		g.Zero()
	}
}

// NumParams returns the total number of scalar parameters — the quantity
// that determines migration/aggregation traffic.
func (m *Sequential) NumParams() int {
	n := 0
	ps, _ := m.Params()
	for _, p := range ps {
		n += p.Size()
	}
	return n
}

// ByteSize returns the serialized size of the parameters in bytes
// (8 bytes per float64), used by the edge-network cost model.
func (m *Sequential) ByteSize() int64 { return int64(m.NumParams()) * 8 }

// ParamVector flattens all parameters into one vector (a copy).
func (m *Sequential) ParamVector() *tensor.Tensor {
	v := tensor.New(m.NumParams())
	m.ParamVectorInto(v)
	return v
}

// ParamVectorInto flattens all parameters into v, which must have size
// NumParams() — the allocation-free variant of ParamVector for callers
// that recycle vectors through an arena.
func (m *Sequential) ParamVectorInto(v *tensor.Tensor) {
	if v.Size() != m.NumParams() {
		panic(fmt.Sprintf("nn: parameter vector size %d does not match model size %d", v.Size(), m.NumParams()))
	}
	off := 0
	ps, _ := m.Params()
	for _, p := range ps {
		copy(v.Data()[off:off+p.Size()], p.Data())
		off += p.Size()
	}
}

// SetParamVector loads a flat parameter vector produced by ParamVector.
func (m *Sequential) SetParamVector(v *tensor.Tensor) {
	if v.Size() != m.NumParams() {
		panic(fmt.Sprintf("nn: parameter vector size %d does not match model size %d", v.Size(), m.NumParams()))
	}
	off := 0
	ps, _ := m.Params()
	for _, p := range ps {
		copy(p.Data(), v.Data()[off:off+p.Size()])
		off += p.Size()
	}
}

// CopyParamsFrom copies parameters from src (which must have an identical
// architecture) into m without reallocating.
func (m *Sequential) CopyParamsFrom(src *Sequential) {
	mp, _ := m.Params()
	sp, _ := src.Params()
	if len(mp) != len(sp) {
		panic("nn: CopyParamsFrom architecture mismatch")
	}
	for i, p := range mp {
		p.CopyFrom(sp[i])
	}
}

// String summarizes the architecture.
func (m *Sequential) String() string {
	names := make([]string, len(m.Layers))
	for i, l := range m.Layers {
		names[i] = l.Name()
	}
	return fmt.Sprintf("Sequential[%s] (%d params)", strings.Join(names, " → "), m.NumParams())
}

const paramMagic = uint32(0xFED51234)

// MarshalParams serializes the model parameters to a compact binary form:
// magic, tensor count, then per-tensor rank/shape/data, all little-endian.
// This is the payload that "moves" during model migration and aggregation.
func (m *Sequential) MarshalParams() ([]byte, error) { return m.AppendParams(nil), nil }

// AppendParams appends the MarshalParams form to dst, growing it at most
// once, so a sender that ships many models can reuse one buffer.
func (m *Sequential) AppendParams(dst []byte) []byte {
	ps, _ := m.Params()
	need := 8
	for _, p := range ps {
		need += 4 + 4*p.Rank() + 8*p.Size()
	}
	if len(dst)+need > cap(dst) {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	le := binary.LittleEndian
	dst = le.AppendUint32(le.AppendUint32(dst, paramMagic), uint32(len(ps)))
	for _, p := range ps {
		dst = le.AppendUint32(dst, uint32(p.Rank()))
		for _, d := range p.Shape() {
			dst = le.AppendUint32(dst, uint32(d))
		}
		dst = wire.AppendRawFloats(dst, p.Data())
	}
	return dst
}

// UnmarshalParams loads parameters serialized by MarshalParams into m.
// The tensor count and every shape must match m's architecture.
func (m *Sequential) UnmarshalParams(data []byte) error { return m.decodeParams(data, nil) }

// UnmarshalParamsInto validates a MarshalParams blob against m's
// architecture exactly as UnmarshalParams does, but writes the values into
// v (size NumParams(), ParamVector layout) and leaves m untouched — m only
// lends its shapes, so one model can check uploads decoded on several
// goroutines straight into their aggregation buffers.
func (m *Sequential) UnmarshalParamsInto(data []byte, v *tensor.Tensor) error {
	if v.Size() != m.NumParams() {
		return fmt.Errorf("nn: parameter vector size %d does not match model size %d", v.Size(), m.NumParams())
	}
	return m.decodeParams(data, v.Data())
}

// decodeParams checks data against m's shapes and copies each tensor's
// values into the matching span of vec, or into m's own tensors when vec
// is nil.
func (m *Sequential) decodeParams(data []byte, vec []float64) error {
	// short is what a stream reader would report for a field of n bytes:
	// io.EOF at a clean boundary, io.ErrUnexpectedEOF inside the field.
	short := func(n int) error {
		switch {
		case len(data) >= n:
			return nil
		case len(data) == 0:
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	u32 := func() (uint32, error) {
		if err := short(4); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint32(data)
		data = data[4:]
		return v, nil
	}
	magic, err := u32()
	if err != nil {
		return fmt.Errorf("nn: reading magic: %w", err)
	}
	if magic != paramMagic {
		return fmt.Errorf("nn: bad parameter magic %#x", magic)
	}
	ps, _ := m.Params()
	count, err := u32()
	if err != nil {
		return fmt.Errorf("nn: reading tensor count: %w", err)
	}
	if int(count) != len(ps) {
		return fmt.Errorf("nn: parameter count mismatch: payload has %d tensors, model has %d", count, len(ps))
	}
	for i, p := range ps {
		rank, err := u32()
		if err != nil {
			return fmt.Errorf("nn: reading rank of tensor %d: %w", i, err)
		}
		if int(rank) != p.Rank() {
			return fmt.Errorf("nn: tensor %d rank mismatch: payload %d, model %d", i, rank, p.Rank())
		}
		for j := 0; j < int(rank); j++ {
			d, err := u32()
			if err != nil {
				return fmt.Errorf("nn: reading shape of tensor %d: %w", i, err)
			}
			if int(d) != p.Dim(j) {
				return fmt.Errorf("nn: tensor %d dim %d mismatch: payload %d, model %d", i, j, d, p.Dim(j))
			}
		}
		dst := p.Data()
		if vec != nil {
			dst, vec = vec[:len(dst)], vec[len(dst):]
		}
		if err := short(8 * len(dst)); err != nil {
			return fmt.Errorf("nn: reading data of tensor %d: %w", i, err)
		}
		wire.RawFloats(dst, data)
		data = data[8*len(dst):]
	}
	if len(data) != 0 {
		return fmt.Errorf("nn: %d trailing bytes after parameters", len(data))
	}
	return nil
}
