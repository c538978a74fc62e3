package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"fedmigr/internal/tensor"
)

// sameBits compares two vectors bit for bit (the fuzzer is free to put NaNs
// in a blob, and NaN != NaN).
func sameBits(a, b *tensor.Tensor) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i, x := range a.Data() {
		if math.Float64bits(x) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestMarshalParamsGoldenBytes pins the parameter blob's exact bytes — the
// format checkpoints store and edgenet bills — to digests produced by the
// reflection-based encoder this one replaced. amd64 only: the blob holds
// initial weights, whose last bits depend on the platform's arithmetic.
func TestMarshalParamsGoldenBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	spec := ModelSpec{Channels: 3, Height: 8, Width: 8, Classes: 10}
	for _, tc := range []struct {
		name  string
		model *Sequential
		size  int
		want  string
	}{
		{"C10CNN", NewC10CNN(tensor.NewRNG(7), spec), 30520, "7b6dcd2d10c9a51df43b950d661bdb554e667a0f508a46a012f6d99b8512ec41"},
		{"MLP", NewMLP(tensor.NewRNG(7), 192, 64, 10), 104064, "44dfca9129be0476094160fcd4b9eb5791154426618b64c5d93227cb264d693c"},
		{"ResLite", NewResLite(tensor.NewRNG(7), spec, 2), 214796, "650c9bcf89db553ecc82ce6671e1c5adb7462902e4b69b43d629f4e2205f6dd5"},
	} {
		b, err := tc.model.MarshalParams()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != tc.size || got != tc.want {
			t.Errorf("%s: blob of %d bytes, digest %s; want %d bytes, %s", tc.name, len(b), got, tc.size, tc.want)
		}
	}
}

// TestAppendParamsReusesBuffer: AppendParams extends what it is given, and
// a buffer that has held one blob holds the next without growing.
func TestAppendParamsReusesBuffer(t *testing.T) {
	a, b := NewMLP(tensor.NewRNG(1), 6, 5, 3), NewMLP(tensor.NewRNG(2), 6, 5, 3)
	wantA, _ := a.MarshalParams()
	wantB, _ := b.MarshalParams()
	buf := a.AppendParams([]byte("head"))
	if string(buf[:4]) != "head" || !bytes.Equal(buf[4:], wantA) {
		t.Fatal("AppendParams must extend dst with exactly the MarshalParams bytes")
	}
	buf = a.AppendParams(buf[:0])
	first := &buf[0]
	if n := testing.AllocsPerRun(10, func() { buf = b.AppendParams(buf[:0]) }); n != 0 {
		t.Errorf("re-marshalling into a warmed buffer allocates %v times, want 0", n)
	}
	if &buf[0] != first || !bytes.Equal(buf, wantB) {
		t.Fatal("a warmed buffer must be reused in place and hold the second model's blob")
	}
}

// TestUnmarshalParamsInto: the decode-into-vector form fills the vector in
// ParamVector layout, leaves the shape-lending model untouched, and rejects
// exactly what UnmarshalParams rejects.
func TestUnmarshalParamsInto(t *testing.T) {
	src, shape := NewMLP(tensor.NewRNG(3), 4, 3, 2), NewMLP(tensor.NewRNG(4), 4, 3, 2)
	blob, _ := src.MarshalParams()
	before := shape.ParamVector()
	v := tensor.New(shape.NumParams())
	if err := shape.UnmarshalParamsInto(blob, v); err != nil {
		t.Fatal(err)
	}
	if !sameBits(v, src.ParamVector()) {
		t.Fatal("decoded vector differs from the sender's ParamVector")
	}
	if !sameBits(shape.ParamVector(), before) {
		t.Fatal("UnmarshalParamsInto wrote into the model that only lends its shapes")
	}
	other, _ := NewMLP(tensor.NewRNG(5), 4, 5, 2).MarshalParams()
	for name, tc := range map[string]struct {
		blob []byte
		v    *tensor.Tensor
		want string
	}{
		"wrong arch":   {other, v, "mismatch"},
		"truncated":    {blob[:len(blob)-1], v, "reading data of tensor"},
		"cut in shape": {blob[:14], v, "reading shape of tensor 0: unexpected EOF"},
		"cut at rank":  {blob[:8], v, "reading rank of tensor 0: EOF"},
		"trailing":     {append(append([]byte(nil), blob...), 0), v, "1 trailing bytes"},
		"bad magic":    {make([]byte, len(blob)), v, "bad parameter magic"},
		"short vector": {blob, tensor.New(3), "parameter vector size 3"},
	} {
		into := shape.UnmarshalParamsInto(tc.blob, tc.v)
		if into == nil || !strings.Contains(into.Error(), tc.want) {
			t.Errorf("%s: UnmarshalParamsInto error %v, want one mentioning %q", name, into, tc.want)
		}
		if plain := shape.UnmarshalParams(tc.blob); name != "short vector" && (plain == nil || plain.Error() != into.Error()) {
			t.Errorf("%s: UnmarshalParams says %v, UnmarshalParamsInto says %v", name, plain, into)
		}
	}
}

// FuzzUnmarshalParams drives the blob decoder with arbitrary bytes against
// a small model: it must error or load, never panic, and whatever loads
// must re-marshal to the very bytes that were accepted.
func FuzzUnmarshalParams(f *testing.F) {
	build := func() *Sequential { return NewMLP(tensor.NewRNG(9), 3, 2, 2) }
	valid, _ := build().MarshalParams()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:10])
	f.Add(append(append([]byte(nil), valid...), 1, 2, 3))
	f.Add([]byte{0x34, 0x12, 0xD5, 0xFE, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := build()
		v := tensor.New(m.NumParams())
		errInto := m.UnmarshalParamsInto(data, v)
		if err := m.UnmarshalParams(data); (err == nil) != (errInto == nil) {
			t.Fatalf("the two decoders disagree: %v vs %v", err, errInto)
		} else if err != nil {
			return
		}
		if again := m.AppendParams(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted blob does not re-marshal to itself")
		}
		if !sameBits(v, m.ParamVector()) {
			t.Fatal("the two decoders loaded different values")
		}
	})
}
