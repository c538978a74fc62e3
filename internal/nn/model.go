package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"fedmigr/internal/tensor"
)

// Sequential chains layers into a model and owns the training plumbing
// (forward, backward, parameter access, serialization). Like its layers
// (see Layer) it is used by one goroutine at a time.
type Sequential struct {
	Layers []Layer

	// ps/gs cache the flattened parameter lists of the first listed layers.
	ps, gs []*tensor.Tensor
	listed int

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

// Backward back-propagates the loss gradient through all layers,
// accumulating parameter gradients.
func (m *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
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
		for _, l := range m.Layers {
			p, g := l.Params()
			m.ps = append(m.ps, p...)
			m.gs = append(m.gs, g...)
		}
		m.listed = len(m.Layers)
	}
	return m.ps, m.gs
}

// ZeroGrad clears all gradient accumulators (nil slots mark
// non-learnable parameters and are skipped).
func (m *Sequential) ZeroGrad() {
	_, gs := m.Params()
	for _, g := range gs {
		if g != nil {
			g.Zero()
		}
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
// magic, tensor count, then per-tensor rank/shape/data. This is the payload
// that "moves" during model migration and aggregation.
func (m *Sequential) MarshalParams() ([]byte, error) {
	var buf bytes.Buffer
	ps, _ := m.Params()
	if err := binary.Write(&buf, binary.LittleEndian, paramMagic); err != nil {
		return nil, err
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(ps))); err != nil {
		return nil, err
	}
	for _, p := range ps {
		if err := binary.Write(&buf, binary.LittleEndian, uint32(p.Rank())); err != nil {
			return nil, err
		}
		for _, d := range p.Shape() {
			if err := binary.Write(&buf, binary.LittleEndian, uint32(d)); err != nil {
				return nil, err
			}
		}
		if err := binary.Write(&buf, binary.LittleEndian, p.Data()); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalParams loads parameters serialized by MarshalParams into m.
// The tensor count and every shape must match m's architecture.
func (m *Sequential) UnmarshalParams(data []byte) error {
	r := bytes.NewReader(data)
	var magic, count uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: reading magic: %w", err)
	}
	if magic != paramMagic {
		return fmt.Errorf("nn: bad parameter magic %#x", magic)
	}
	ps, _ := m.Params()
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: reading tensor count: %w", err)
	}
	if int(count) != len(ps) {
		return fmt.Errorf("nn: parameter count mismatch: payload has %d tensors, model has %d", count, len(ps))
	}
	for i, p := range ps {
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return fmt.Errorf("nn: reading rank of tensor %d: %w", i, err)
		}
		if int(rank) != p.Rank() {
			return fmt.Errorf("nn: tensor %d rank mismatch: payload %d, model %d", i, rank, p.Rank())
		}
		for j := 0; j < int(rank); j++ {
			var d uint32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return fmt.Errorf("nn: reading shape of tensor %d: %w", i, err)
			}
			if int(d) != p.Dim(j) {
				return fmt.Errorf("nn: tensor %d dim %d mismatch: payload %d, model %d", i, j, d, p.Dim(j))
			}
		}
		if err := binary.Read(r, binary.LittleEndian, p.Data()); err != nil {
			return fmt.Errorf("nn: reading data of tensor %d: %w", i, err)
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("nn: %d trailing bytes after parameters", r.Len())
	}
	return nil
}

// WriteParams streams the serialized parameters to w.
func (m *Sequential) WriteParams(w io.Writer) error {
	b, err := m.MarshalParams()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadParams loads parameters from r.
func (m *Sequential) ReadParams(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return m.UnmarshalParams(b)
}
