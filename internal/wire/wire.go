// Package wire holds the fixed-width little-endian field primitives shared
// by the repo's hand-written binary formats: fednet's frame bodies, core's
// TrainState blobs and nn's parameter blobs. Integers travel as 8 bytes,
// floats as their IEEE-754 bits (NaN payloads and signed zeros survive),
// variable-length fields as a uint32 count followed by their elements. The
// Append functions extend b by one field and cannot fail; the Decoder
// checks every count against the bytes that remain before it allocates, so
// a lying count costs an error, not memory.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

var le = binary.LittleEndian

func AppendInt(b []byte, v int) []byte       { return le.AppendUint64(b, uint64(v)) }
func AppendInt64(b []byte, v int64) []byte   { return le.AppendUint64(b, uint64(v)) }
func AppendFloat(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }
func AppendCount(b []byte, n int) []byte     { return le.AppendUint32(b, uint32(n)) }
func AppendString(b []byte, s string) []byte { return append(AppendCount(b, len(s)), s...) }
func AppendBytes(b, p []byte) []byte         { return append(AppendCount(b, len(p)), p...) }

func AppendInts(b []byte, v []int) []byte {
	b = AppendCount(b, len(v))
	for _, x := range v {
		b = AppendInt(b, x)
	}
	return b
}

func AppendFloats(b []byte, v []float64) []byte {
	return AppendRawFloats(AppendCount(b, len(v)), v)
}

// AppendRawFloats appends v's elements with no count: one exact grow, then
// a store per element.
func AppendRawFloats(b []byte, v []float64) []byte {
	off := len(b)
	if need := off + 8*len(v); need > cap(b) {
		b = append(make([]byte, 0, need), b...)
	}
	b = b[:off+8*len(v)]
	for i, x := range v {
		le.PutUint64(b[off+8*i:], math.Float64bits(x))
	}
	return b
}

// RawFloats fills dst from the first 8·len(dst) bytes of src.
func RawFloats(dst []float64, src []byte) {
	_ = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(src[8*i:]))
	}
}

// Decoder reads fields off a byte slice in the order they were appended.
// The first failure sticks — later reads return zero values — so a decode
// function reads every field and checks Err once. The zero Decoder is
// empty; Reset points it at a slice.
type Decoder struct {
	b   []byte
	err error
}

// Reset starts d over at the head of b with no failure recorded.
func (d *Decoder) Reset(b []byte) { *d = Decoder{b: b} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// take returns the next n bytes, or nil after recording a failure.
func (d *Decoder) take(n int) []byte {
	if d.err == nil && n > len(d.b) {
		d.err = fmt.Errorf("wire: field needs %d bytes, %d remain", n, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *Decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

// Int is Int64 narrowed to int. Fields that must keep all 64 bits on a
// 32-bit host (seeds) use Int64.
func (d *Decoder) Int() int       { return int(d.u64()) }
func (d *Decoder) Int64() int64   { return int64(d.u64()) }
func (d *Decoder) Float() float64 { return math.Float64frombits(d.u64()) }

// Count reads a length prefix and verifies that count elements of at least
// elemMin bytes each can still follow and that the count fits an int;
// otherwise it fails and returns 0. It computes in uint64, so a count near
// 2³² cannot overflow on a 32-bit host.
func (d *Decoder) Count(elemMin int) int {
	p := d.take(4)
	if p == nil {
		return 0
	}
	n := uint64(le.Uint32(p))
	if need := n * uint64(elemMin); need > uint64(len(d.b)) || n > math.MaxInt {
		d.err = fmt.Errorf("wire: %d elements need %d bytes, %d remain", n, need, len(d.b))
		return 0
	}
	return int(n)
}

func (d *Decoder) String() string { return string(d.take(d.Count(1))) }

// Bytes returns a copy: the decoded slice may be a reused read buffer.
func (d *Decoder) Bytes() []byte { return append([]byte(nil), d.take(d.Count(1))...) }

// Ints and Floats return nil for an empty list.
func (d *Decoder) Ints() []int {
	var v []int
	if n := d.Count(8); n > 0 {
		v = make([]int, n)
		for i := range v {
			v[i] = d.Int()
		}
	}
	return v
}

func (d *Decoder) Floats() []float64 {
	var v []float64
	if n := d.Count(8); n > 0 {
		v = make([]float64, n)
		RawFloats(v, d.take(8*n))
	}
	return v
}

// Rest returns every unread byte — an alias into the decoded slice, not a
// copy — and leaves the decoder empty.
func (d *Decoder) Rest() []byte {
	p := d.b
	d.b = nil
	return p
}
