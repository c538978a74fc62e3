package fednet

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// frameFor encodes a message and returns the exact wire bytes.
func frameFor(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadMessage drives the frame decoder with arbitrary wire bytes. The
// decoder must return an error or a message — never panic, and never
// allocate more than one readChunk ahead of the bytes actually present.
func FuzzReadMessage(f *testing.F) {
	// Seed corpus: valid frames with and without lists and Params, a
	// truncated one, a lying length prefix, an oversized prefix, and junk
	// that is not a frame at all.
	valid := frameFor(f, &Message{Type: MsgCompletion, Round: 3, Loss: 0.5})
	f.Add(valid)
	f.Add(frameFor(f, &Message{Type: MsgMigrationOrder, Inbound: 1, Orders: []Order{{ModelID: 1, DestID: 2, DestAddr: "x:1"}}}))
	f.Add(frameFor(f, &Message{Type: MsgLocalUpdate, ModelID: 2, Weight: 8, Params: []byte{1, 2, 3}, EffDist: []float64{0.5, 0.5}}))
	f.Add(frameFor(f, &Message{Type: MsgPartialSum, UpdateIDs: []int{0}, Nodes: []AggNode{{Count: 1, Weight: 2, Vec: []float64{1}}}}))
	f.Add(frameFor(f, &Message{Type: MsgMigrateState, States: []StateBlob{{ModelID: 1, Blob: []byte("FMTS")}}}))
	f.Add(valid[:len(valid)-2])
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3}) // claims 8 bytes, carries 3
	big := make([]byte, 4)
	binary.BigEndian.PutUint32(big, maxFrame+1)
	f.Add(big)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := ReadMessageCount(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("non-nil message alongside error %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("nil message without error")
		}
		if n < 4 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// The codec is closed and canonical: what decodes re-encodes, and
		// the re-encoding is a fixed point of decode∘encode. (The input itself
		// need not be: it may name a field and then carry its zero value.)
		var once, twice bytes.Buffer
		if err := WriteMessage(&once, m); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		m2, err := ReadMessage(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		if err := WriteMessage(&twice, m2); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode∘decode∘encode moved the bytes (%v):\n %x\n %x", err, once.Bytes(), twice.Bytes())
		}
	})
}

func TestReadMessageMalformedFrames(t *testing.T) {
	valid := frameFor(t, &Message{Type: MsgCompletion, Round: 1, Loss: 1.25})
	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, maxFrame+1)

	cases := []struct {
		name string
		wire []byte
		want string
	}{
		{"empty", nil, "read frame length"},
		{"short prefix", []byte{0, 0}, "read frame length"},
		{"truncated payload", valid[:len(valid)-3], "read frame"},
		{"lying prefix", []byte{0, 0, 0, 200, 1, 2, 3}, "read frame"},
		{"just over limit", oversize, "exceeds limit"},
		{"max uint32", []byte{0xff, 0xff, 0xff, 0xff}, "exceeds limit"},
		{"not gob", []byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'}, "decode frame"}, // nor a frame: the name predates the hand-written codec
		{"wrong version", []byte{0, 0, 0, 6, 'j', 'u', 'n', 'k', 0, 0}, "decode frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ReadMessage(bytes.NewReader(tc.wire))
			if err == nil {
				t.Fatalf("decoded %+v from malformed wire", m)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadMessageAllocationBound checks a frame header claiming a huge
// (but in-limit) length does not allocate the claimed size up front: the
// chunked reader fails after at most one readChunk of over-allocation.
func TestReadMessageAllocationBound(t *testing.T) {
	header := make([]byte, 4)
	binary.BigEndian.PutUint32(header, maxFrame) // exactly at the limit
	wire := append(header, 1, 2, 3)              // but only 3 bytes follow

	before := testing.AllocsPerRun(20, func() {
		if _, err := ReadMessage(bytes.NewReader(wire)); err == nil {
			t.Fatal("truncated frame decoded")
		}
	})
	// The decode path allocates a handful of objects (reader, error,
	// payload chunk); a maxFrame up-front allocation would not change the
	// count, so also bound the chunk size statically.
	if before > 50 {
		t.Fatalf("unexpected allocation count %v", before)
	}
	if readChunk > 4<<20 {
		t.Fatalf("readChunk %d defeats the bounded-allocation goal", readChunk)
	}
}

// TestReadMessageTypeMismatch covers expect(): a well-formed frame of the
// wrong type errors rather than being handed to the caller.
func TestReadMessageTypeMismatch(t *testing.T) {
	wire := frameFor(t, &Message{Type: MsgShutdown})
	if _, err := (*netMetrics)(nil).expect(new(frameReader), bytes.NewReader(wire), MsgGlobalModel); err == nil {
		t.Fatal("type mismatch accepted")
	} else if !strings.Contains(err.Error(), "Shutdown") || !strings.Contains(err.Error(), "GlobalModel") {
		t.Fatalf("unhelpful mismatch error %q", err)
	}
}

func TestReadMessageRoundTrip(t *testing.T) {
	in := &Message{
		Type: MsgTransferDone, Round: 2, Epoch: 9,
		Kept: []int{1, 4}, Received: []int{0},
	}
	m, err := ReadMessage(bytes.NewReader(frameFor(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != in.Type || len(m.Kept) != 2 || m.Kept[1] != 4 || len(m.Received) != 1 {
		t.Fatalf("round trip %+v", m)
	}
}
