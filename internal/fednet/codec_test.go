package fednet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// populate sets every field reachable from v to a distinct non-zero value:
// numbers count up, strings are numbered, bools are true, slices get two
// elements. A Message field added later is populated without touching this
// test, so a field the codec's walk forgets fails the round trip below.
func populate(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint8:
		v.SetUint(uint64(*next%200 + 1))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			populate(v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i), next)
		}
	default:
		panic("populate: unhandled kind " + v.Kind().String())
	}
}

// TestCodecRoundTripEveryType: for every frame type, a Message carrying
// every field the runtime sets on that type — and one carrying every field
// Message has — comes back from ReadMessage(WriteMessage(m)) deeply equal.
func TestCodecRoundTripEveryType(t *testing.T) {
	dist := []float64{0.25, 0.75}
	blob := []byte{0xFE, 0xD5, 0x12, 0x34, 9, 9}
	msgs := []*Message{
		{Type: MsgHello, JobID: "alpha", ListenAddr: "127.0.0.1:4001", NumSamples: 64, Dist: dist},
		{Type: MsgWelcome, ClientID: 3, K: 8, JobID: "alpha", Rounds: 5, AggEvery: 3, Tau: 2, BatchSize: 16, LR: 0.05},
		{Type: MsgGlobalModel, Round: 4, ModelID: 2, Params: blob},
		{Type: MsgGlobalModel, ModelID: 9, Params: blob, Warm: true},
		{Type: MsgCompletion, Round: 1, Loss: 0.75},
		{Type: MsgMigrationOrder, Inbound: 2, Orders: []Order{
			{ModelID: 1, DestID: 2, DestAddr: "10.0.0.2:7"}, {ModelID: 5, DestID: 0, DestAddr: "10.0.0.1:7"}}},
		{Type: MsgModelTransfer, ModelID: 7, Params: blob},
		{Type: MsgTransferDone, Kept: []int{1, 4}, Received: []int{0}},
		{Type: MsgAggregateOrder, Round: 2, AggAddr: "10.0.1.1:9"},
		{Type: MsgLocalUpdate, ModelID: 3, Params: blob, Weight: 64, EffDist: dist},
		{Type: MsgShutdown, JobID: "alpha"},
		{Type: MsgAggHello, JobID: "alpha", ListenAddr: "10.0.1.1:9"},
		{Type: MsgAggWelcome, AggID: 1, K: 8, JobID: "alpha"},
		{Type: MsgAggRound, Round: 2, Expected: 4, Weights: []float64{64, 64, 32, 0}},
		{Type: MsgPartialSum, Round: 2, UpdateIDs: []int{0, 1, 2}, Nodes: []AggNode{
			{Start: 0, Level: 1, Count: 2, Weight: 128, Vec: []float64{1, -2, 3}},
			{Start: 2, Level: 0, Count: 1, Weight: 32, Vec: []float64{0, 0.5, -0.0}}}},
		{Type: MsgMigrateState, Epoch: 7, Loss: 1.5, States: []StateBlob{
			{ModelID: 3, Blob: []byte("FMTS-one")}, {ModelID: 6, Blob: []byte("FMTS-two")}}},
	}
	seen := map[MsgType]bool{}
	for _, m := range msgs {
		seen[m.Type] = true
	}
	for typ := MsgHello; typ <= msgTypeMax; typ++ {
		if !seen[typ] {
			t.Errorf("no round-trip case for %v", typ)
		}
	}
	all := &Message{}
	n := 0
	populate(reflect.ValueOf(all).Elem(), &n)
	all.Type = MsgPartialSum
	msgs = append(msgs, all)

	for _, in := range msgs {
		out, err := ReadMessage(bytes.NewReader(frameFor(t, in)))
		if err != nil {
			t.Fatalf("%v: %v", in.Type, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%v round trip:\n sent %+v\n got  %+v", in.Type, in, out)
		}
	}
}

// TestCodecWrongVersion: a frame from a build with another field layout is
// refused by name, not decoded into the wrong fields.
func TestCodecWrongVersion(t *testing.T) {
	frame := frameFor(t, &Message{Type: MsgCompletion, Loss: 0.5})
	frame[4] = wireVersion + 1
	_, err := ReadMessage(bytes.NewReader(frame))
	if err == nil || !strings.Contains(err.Error(), "decode frame") || !strings.Contains(err.Error(), "wire version 2") {
		t.Fatalf("want a pointed wire-version error, got %v", err)
	}
}

// TestCodecRejectsLyingCounts: every count read off the wire is checked
// against the bytes that remain, and a body must be consumed exactly.
func TestCodecRejectsLyingCounts(t *testing.T) {
	base := frameFor(t, &Message{Type: MsgTransferDone, Kept: []int{1, 2}})
	patch := func(edit func(b []byte) []byte) []byte {
		b := edit(append([]byte(nil), base...))
		binary.BigEndian.PutUint32(b, uint32(len(b)-4))
		return b
	}
	cases := map[string][]byte{
		"count beyond body": patch(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[headLen:], 1<<30); return b }),
		"trailing bytes":    patch(func(b []byte) []byte { return append(b, 0) }),
		"unknown mask bit":  patch(func(b []byte) []byte { b[headLen-1] |= 0x80; return b }),
		"field cut short":   patch(func(b []byte) []byte { return b[:len(b)-1] }),
		"no head":           patch(func(b []byte) []byte { return b[:7] }),
	}
	for name, wire := range cases {
		if m, err := ReadMessage(bytes.NewReader(wire)); err == nil || !strings.Contains(err.Error(), "decode frame") {
			t.Errorf("%s: got %+v, %v; want a decode frame error", name, m, err)
		}
	}
}

// wireModel is the benchmark's wire-heavy architecture at a tenth of the
// width: big enough that a stray per-frame copy shows, small enough to run
// in microseconds.
func wireModel(seed int64) *nn.Sequential {
	g := tensor.NewRNG(seed)
	return nn.NewSequential(nn.NewFlatten(), nn.NewDense(g, 192, 48), nn.NewReLU(), nn.NewDense(g, 48, 10))
}

// TestModelFrameSize: a model frame costs the parameter blob plus a small
// fixed head, and — the fields being fixed-width — its length does not
// depend on the values it carries, so byte counters measure the protocol
// and not the weights.
func TestModelFrameSize(t *testing.T) {
	var sizes []int
	for seed := int64(1); seed <= 2; seed++ {
		blob, err := wireModel(seed).MarshalParams()
		if err != nil {
			t.Fatal(err)
		}
		frame := frameFor(t, &Message{Type: MsgModelTransfer, Round: 3, ModelID: 2, Params: blob})
		if over := len(frame) - len(blob); over <= 0 || over > 64 {
			t.Fatalf("model frame spends %d bytes beyond its %d-byte blob, want 1..64", over, len(blob))
		}
		sizes = append(sizes, len(frame))
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("frames of two different models differ in length: %d vs %d", sizes[0], sizes[1])
	}
	if n := len(frameFor(t, &Message{Type: MsgCompletion, Round: 1, Loss: 0.75})); n > 32 {
		t.Fatalf("a Completion frame is %d bytes, want at most 32", n)
	}
}

// TestFrameAllocs pins the session's steady state: marshalling a model
// into the sender's encode buffer, writing the frame, and reading it back
// through the connection's frameReader allocates a handful of small
// objects (frame head, write vector, Message) and nothing model-sized.
// Run without the race detector in check.sh.
func TestFrameAllocs(t *testing.T) {
	model := wireModel(1)
	var enc []byte
	var pipe bytes.Buffer
	var rd frameReader
	hop := func() {
		enc = model.AppendParams(enc[:0])
		if err := WriteMessage(&pipe, &Message{Type: MsgModelTransfer, ModelID: 1, Params: enc}); err != nil {
			t.Fatal(err)
		}
		m, _, err := rd.read(&pipe)
		if err != nil || len(m.Params) != len(enc) {
			t.Fatalf("read back %v, %v", m, err)
		}
	}
	hop() // warm: the three buffers grow to the frame's size
	if n := testing.AllocsPerRun(20, hop); n > 4 {
		t.Fatalf("a warmed model hop allocates %v times, want at most 4", n)
	}
}

// TestFrameReaderReusesBuffer: frames read through one frameReader share
// its buffer — Params aliases it and is overwritten by the next read —
// while ReadMessage hands every frame storage of its own.
func TestFrameReaderReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	for _, p := range [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}} {
		if err := WriteMessage(&stream, &Message{Type: MsgModelTransfer, Params: p}); err != nil {
			t.Fatal(err)
		}
	}
	wire := append([]byte(nil), stream.Bytes()...)
	var rd frameReader
	first, _, err := rd.read(&stream)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := rd.read(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if first.Params[0] != 2 || second.Params[0] != 2 {
		t.Fatalf("frameReader did not reuse its buffer: first %v, second %v", first.Params, second.Params)
	}
	r := bytes.NewReader(wire)
	a, err := ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(r); err != nil {
		t.Fatal(err)
	}
	if a.Params[0] != 1 {
		t.Fatalf("ReadMessage frames must not share storage, first now reads %v", a.Params)
	}
}

// chunkWriter records how the codec hands a frame to a plain io.Writer.
type chunkWriter struct{ chunks [][]byte }

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, p)
	return len(p), nil
}

// TestWriteMessageDoesNotCopyParams: the parameter blob reaches the writer
// as the caller's own slice, after the head, and a frame without Params is
// a single write (an empty write would still be an operation to a fault
// plan or a net.Pipe).
func TestWriteMessageDoesNotCopyParams(t *testing.T) {
	params := []byte{1, 2, 3}
	var w chunkWriter
	n, err := WriteMessageCount(&w, &Message{Type: MsgLocalUpdate, ModelID: 1, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.chunks) != 2 || &w.chunks[1][0] != &params[0] || n != len(w.chunks[0])+3 {
		t.Fatalf("model frame written as %d chunks, %d bytes", len(w.chunks), n)
	}
	w.chunks = nil
	if _, err := WriteMessageCount(&w, &Message{Type: MsgShutdown}); err != nil || len(w.chunks) != 1 {
		t.Fatalf("control frame written as %d chunks (%v), want 1", len(w.chunks), err)
	}
	if err := WriteMessage(io.Discard, &Message{Type: MsgGlobalModel, Params: make([]byte, maxFrame)}); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("an over-limit frame must be refused at the sender, got %v", err)
	}
}
