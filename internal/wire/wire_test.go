package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTripEveryFieldKind(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	var b []byte
	b = AppendInt(b, -7)
	b = AppendFloat(b, math.Copysign(0, -1))
	b = AppendString(b, "héllo")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendInt64(b, math.MinInt64)
	b = AppendInts(b, []int{math.MinInt, 0, math.MaxInt})
	b = AppendFloats(b, []float64{1.5, nan})
	b = AppendInts(b, nil)
	b = AppendFloats(b, nil)
	b = AppendBytes(b, nil)
	b = append(b, 0xAA, 0xBB)

	var d Decoder
	d.Reset(b)
	if got := d.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Float(); got != 0 || !math.Signbit(got) {
		t.Errorf("Float lost the sign of -0: %v", got)
	}
	if got := d.String(); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	blob := d.Bytes()
	if !reflect.DeepEqual(blob, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", blob)
	}
	if got := d.Int64(); got != math.MinInt64 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Ints(); !reflect.DeepEqual(got, []int{math.MinInt, 0, math.MaxInt}) {
		t.Errorf("Ints = %v", got)
	}
	if got := d.Floats(); len(got) != 2 || got[0] != 1.5 || math.Float64bits(got[1]) != math.Float64bits(nan) {
		t.Errorf("Floats = %v (NaN payload must survive)", got)
	}
	if i, f, p := d.Ints(), d.Floats(), d.Bytes(); i != nil || f != nil || p != nil {
		t.Errorf("empty lists must decode as nil, got %v %v %v", i, f, p)
	}
	rest := d.Rest()
	if d.Err() != nil || len(rest) != 2 || &rest[0] != &b[len(b)-2] {
		t.Fatalf("Rest must alias the tail of the input: %v, err %v", rest, d.Err())
	}
	b[8+8+4+len("héllo")+4] = 9 // first byte of the Bytes payload
	if blob[0] != 1 {
		t.Error("Bytes must return a copy, not an alias into the decoded slice")
	}
	if d.Int() != 0 || d.Err() == nil {
		t.Error("reading past the end must fail")
	}
}

func TestDecoderChecksCountsBeforeAllocating(t *testing.T) {
	for name, read := range map[string]func(*Decoder){
		"ints":   func(d *Decoder) { d.Ints() },
		"floats": func(d *Decoder) { d.Floats() },
		"string": func(d *Decoder) { _ = d.String() },
		"bytes":  func(d *Decoder) { d.Bytes() },
		"count":  func(d *Decoder) { d.Count(36) },
	} {
		// A count of 2³²−1 with three bytes behind it: allocating for it
		// first would ask for gigabytes and take the test down.
		var d Decoder
		d.Reset(append(le.AppendUint32(nil, math.MaxUint32), 1, 2, 3))
		read(&d)
		if d.Err() == nil || !strings.Contains(d.Err().Error(), "remain") {
			t.Errorf("%s: lying count accepted: %v", name, d.Err())
		}
		// The failure sticks: later reads return zero values and keep the
		// first error.
		first := d.Err()
		if d.Int() != 0 || d.Floats() != nil || d.Err() != first {
			t.Errorf("%s: reads after a failure must be zero and keep the first error", name)
		}
	}
	var d Decoder
	d.Reset([]byte{1, 2})
	if d.Count(1); d.Err() == nil {
		t.Error("a truncated count must fail")
	}
}

func TestAppendRawFloatsGrowsOnce(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i) / 3
	}
	b := AppendRawFloats([]byte("xy"), v)
	if string(b[:2]) != "xy" || cap(b) != 2+8*len(v) {
		t.Fatalf("want one exact grow to %d bytes, got cap %d", 2+8*len(v), cap(b))
	}
	got := make([]float64, len(v))
	RawFloats(got, b[2:])
	if !reflect.DeepEqual(got, v) {
		t.Fatal("RawFloats did not invert AppendRawFloats")
	}
	if n := testing.AllocsPerRun(10, func() { b = AppendRawFloats(b[:2], v) }); n != 0 {
		t.Fatalf("appending into sufficient capacity allocates %v times", n)
	}
}
