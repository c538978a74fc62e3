// Package fednet is the distributed runtime of the reproduction: a real
// parameter server and client nodes exchanging models over TCP — the
// counterpart of the paper's 30-device test-bed (Sec. IV-D). Unlike
// internal/core, which simulates transfers through a cost model, fednet
// actually moves serialized model parameters over the network: clients
// upload to the server over its listener (C2S) and migrate models directly
// to peer listeners (C2C), exactly the communication pattern FedMigr
// exploits.
//
// Every conversation is strictly turn-based per round, mirroring Fig. 2's
// synchronous workflow: Hello/Welcome, then per round Model Distribution →
// (Local Updating → Completion → Migration)× → Local Updating → Aggregation.
//
// # Wire format
//
// One hand-written codec serves every frame type (DESIGN.md §4e):
//
//	uint32 BE  body length (≤ maxFrame)
//	byte       wireVersion
//	byte       MsgType
//	uint32 LE  presence mask: bit i set ⇔ field i of Message.walk is non-zero
//	...        the present fields, fixed-width little-endian (internal/wire)
//	...        Params, last and uncounted: the rest of the frame
//
// A frame's length depends on which fields are set, never on their values.
// Params goes last so the sender writes it straight from its own buffer
// and the receiver uses it in place: read through a connection's
// frameReader, Params aliases that reader's buffer and is valid until the
// next read on the same connection — every handler decodes it into a
// replica or an accumulator leaf first. ReadMessage gives each frame a
// buffer of its own.
package fednet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"fedmigr/internal/wire"
)

// MsgType identifies a protocol frame.
type MsgType uint8

// Protocol frames.
const (
	// MsgHello is the client's registration: listen address and label
	// distribution of its local dataset.
	MsgHello MsgType = iota + 1
	// MsgWelcome assigns the client its id and the run configuration.
	MsgWelcome
	// MsgGlobalModel distributes the fresh global parameters (Model
	// Distribution).
	MsgGlobalModel
	// MsgCompletion is the client's end-of-local-updating signal with its
	// current loss (Sec. II-B: "each client sends a completion signal").
	MsgCompletion
	// MsgMigrationOrder tells a client where each of its hosted models
	// goes, and how many inbound models to expect.
	MsgMigrationOrder
	// MsgModelTransfer carries a model from one client to another (C2C).
	MsgModelTransfer
	// MsgTransferDone confirms a client finished its migration sends and
	// receives.
	MsgTransferDone
	// MsgAggregateOrder tells a client to upload all hosted models.
	MsgAggregateOrder
	// MsgLocalUpdate uploads one hosted model to the server (Global
	// Aggregation).
	MsgLocalUpdate
	// MsgShutdown ends the session.
	MsgShutdown
	// MsgAggHello registers an edge aggregator: its upload listen address.
	MsgAggHello
	// MsgAggWelcome assigns the aggregator its id and the session shape.
	MsgAggWelcome
	// MsgAggRound arms an aggregator for one round: how many uploads to
	// expect and the per-slot aggregation weights.
	MsgAggRound
	// MsgPartialSum carries an aggregator's drained reduction-tree nodes
	// upstream — O(fan-in) uploads compressed into O(log K) partial sums.
	MsgPartialSum
	// MsgMigrateState carries in-flight TrainState blobs: a gracefully
	// leaving client sends it to the server in place of its completion
	// signal, and the server reroutes the blobs to an adopting live client,
	// so a departure mid-round loses no training work (FedFly-style live
	// migration).
	MsgMigrateState
)

// msgTypeMax is the highest defined frame type; telemetry tables are sized
// by it so adding a frame type cannot silently fall outside the counters.
const msgTypeMax = MsgMigrateState

// String implements fmt.Stringer.
func (t MsgType) String() string {
	names := map[MsgType]string{
		MsgHello: "Hello", MsgWelcome: "Welcome", MsgGlobalModel: "GlobalModel",
		MsgCompletion: "Completion", MsgMigrationOrder: "MigrationOrder",
		MsgModelTransfer: "ModelTransfer", MsgTransferDone: "TransferDone",
		MsgAggregateOrder: "AggregateOrder", MsgLocalUpdate: "LocalUpdate",
		MsgShutdown: "Shutdown", MsgAggHello: "AggHello",
		MsgAggWelcome: "AggWelcome", MsgAggRound: "AggRound",
		MsgPartialSum: "PartialSum", MsgMigrateState: "MigrateState",
	}
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// AggNode is one complete reduction-tree node on the wire: the weighted
// partial sum of the Count uploads covering slots [Start, Start+2^Level)
// (clipped to K). Folding a node into the root accumulator reproduces the
// exact bits a flat fold of its leaves would have produced, so partial
// sums compose across any aggregator fan-out (internal/agg).
type AggNode struct {
	Start, Level, Count int
	Weight              float64
	Vec                 []float64
}

// StateBlob pairs a model id with its serialized core.TrainState — the
// payload unit of MsgMigrateState.
type StateBlob struct {
	ModelID int
	Blob    []byte
}

// Order is one outbound migration instruction.
type Order struct {
	ModelID int
	// DestID and DestAddr locate the receiving client; DestID == the
	// sender's id means the model stays.
	DestID   int
	DestAddr string
}

// Message is the universal protocol frame payload.
type Message struct {
	Type  MsgType
	Round int
	Epoch int

	// JobID keys the session to one fleet job: registrations (Hello /
	// AggHello) carry the node's job and the server accepts only matching
	// peers, echoing the id in Welcome/AggWelcome. Empty on both sides is
	// the single-job legacy session and always matches.
	JobID string

	// Hello / Welcome.
	ClientID   int
	ListenAddr string
	NumSamples int
	Dist       []float64
	K          int
	// Run configuration (Welcome).
	Rounds    int
	AggEvery  int
	Tau       int
	BatchSize int
	LR        float64

	// Completion.
	Loss float64

	// Migration.
	Orders  []Order
	Inbound int
	// TransferDone reconciliation: Kept lists ordered models the sender
	// could not deliver and kept locally (dead/unreachable destination);
	// Received lists the model ids that actually arrived inbound. The
	// server commits a migration only when the receiver confirms it.
	Kept     []int
	Received []int

	// Model payloads (GlobalModel, ModelTransfer, LocalUpdate).
	ModelID int
	Weight  float64
	Params  []byte
	// Warm marks a GlobalModel frame as a warm handoff to a late joiner:
	// the client installs the parameters but neither trains nor signals —
	// it participates from the next distribution.
	Warm bool
	// States carries in-flight TrainState blobs (MsgMigrateState): a
	// leaving client hands its hosted models' states to the server, which
	// reroutes them to an adopter.
	States []StateBlob
	// EffDist carries the model's effective label mixture so the server's
	// policy state stays current after C2C moves.
	EffDist []float64

	// Aggregator tier (AggHello/AggWelcome/AggRound/PartialSum, plus
	// AggAddr on AggregateOrder).
	//
	// AggID identifies the aggregator (AggWelcome).
	AggID int
	// AggAddr, when non-empty on an AggregateOrder, redirects the client's
	// uploads to its LAN aggregator instead of the server.
	AggAddr string
	// Expected is the number of uploads the aggregator should collect this
	// round (AggRound).
	Expected int
	// Weights are the per-slot (model id) aggregation weights the
	// aggregator folds uploads with (AggRound).
	Weights []float64
	// Nodes are the drained partial sums (PartialSum).
	Nodes []AggNode
	// UpdateIDs lists the model ids folded into Nodes (PartialSum).
	UpdateIDs []int
}

const maxFrame = 64 << 20 // 64 MiB: far above any model in the zoo

// readChunk bounds the allocation made ahead of received data: a frame
// header claiming maxFrame bytes costs at most one chunk until the bytes
// actually arrive, so a lying (or fuzzed) peer cannot force a 64 MiB
// allocation with a 5-byte message.
const readChunk = 1 << 20

// wireVersion is the first body byte of every frame. Bump it whenever a
// Message field is added, removed, reordered or changes width: the mask
// names fields by position, so peers with different layouts must refuse
// each other rather than mis-assign fields.
const wireVersion = 1

// headLen is the fixed part of a frame: length prefix, version, type, mask.
const headLen = 4 + 1 + 1 + 4

// codec walks a Message's fields once, in wire order, and either appends
// the non-zero ones to buf while recording their mask bits (enc) or fills
// the ones the mask names from dec. Message.walk is the only field list, so
// encoder and decoder cannot disagree on order or width.
type codec struct {
	enc    bool
	mask   uint32
	bit    uint32 // the next field's mask bit
	inList bool   // list elements travel whole: no mask bits inside one
	buf    []byte
	dec    *wire.Decoder
}

// has advances to the next field and reports whether it travels: on encode
// when it is non-zero, on decode when the sender's mask named it.
func (c *codec) has(nonZero bool) bool {
	if c.inList {
		return true
	}
	bit := c.bit
	c.bit <<= 1
	if c.enc && nonZero {
		c.mask |= bit
	}
	return c.mask&bit != 0
}

func field[T any](c *codec, p *T, nonZero bool, app func([]byte, T) []byte, read func(*wire.Decoder) T) {
	switch {
	case !c.has(nonZero):
	case c.enc:
		c.buf = app(c.buf, *p)
	default:
		*p = read(c.dec)
	}
}

func (c *codec) int(p *int)      { field(c, p, *p != 0, wire.AppendInt, (*wire.Decoder).Int) }
func (c *codec) str(p *string)   { field(c, p, *p != "", wire.AppendString, (*wire.Decoder).String) }
func (c *codec) ints(p *[]int)   { field(c, p, len(*p) > 0, wire.AppendInts, (*wire.Decoder).Ints) }
func (c *codec) bytes(p *[]byte) { field(c, p, len(*p) > 0, wire.AppendBytes, (*wire.Decoder).Bytes) }
func (c *codec) flag(p *bool)    { *p = c.has(*p) } // no body: the mask bit is the value
func (c *codec) floats(p *[]float64) {
	field(c, p, len(*p) > 0, wire.AppendFloats, (*wire.Decoder).Floats)
}

// float tests bits, not the value, so −0 and NaN travel like any other.
func (c *codec) float(p *float64) {
	field(c, p, math.Float64bits(*p) != 0, wire.AppendFloat, (*wire.Decoder).Float)
}

// list frames a slice of structs: a count — checked on decode against
// elemMin bytes an element before the slice is allocated — then every
// element's fields.
func list[T any](c *codec, p *[]T, elemMin int, fields func(*T)) {
	if !c.has(len(*p) > 0) {
		return
	}
	if c.enc {
		c.buf = wire.AppendCount(c.buf, len(*p))
	} else {
		*p = make([]T, c.dec.Count(elemMin))
	}
	c.inList = true
	for i := range *p {
		fields(&(*p)[i])
	}
	c.inList = false
}

// walk lists every Message field but Type (the frame's second byte) in
// declaration order, except that Params goes last: the encoder leaves it
// out of buf and writes it straight from the caller's slice, the decoder
// takes the rest of the frame in place.
func (m *Message) walk(c *codec) {
	c.int(&m.Round)
	c.int(&m.Epoch)
	c.str(&m.JobID)
	c.int(&m.ClientID)
	c.str(&m.ListenAddr)
	c.int(&m.NumSamples)
	c.floats(&m.Dist)
	c.int(&m.K)
	c.int(&m.Rounds)
	c.int(&m.AggEvery)
	c.int(&m.Tau)
	c.int(&m.BatchSize)
	c.float(&m.LR)
	c.float(&m.Loss)
	list(c, &m.Orders, 20, func(o *Order) { c.int(&o.ModelID); c.int(&o.DestID); c.str(&o.DestAddr) })
	c.int(&m.Inbound)
	c.ints(&m.Kept)
	c.ints(&m.Received)
	c.int(&m.ModelID)
	c.float(&m.Weight)
	c.flag(&m.Warm)
	list(c, &m.States, 12, func(s *StateBlob) { c.int(&s.ModelID); c.bytes(&s.Blob) })
	c.floats(&m.EffDist)
	c.int(&m.AggID)
	c.str(&m.AggAddr)
	c.int(&m.Expected)
	c.floats(&m.Weights)
	list(c, &m.Nodes, 36, func(n *AggNode) {
		c.int(&n.Start)
		c.int(&n.Level)
		c.int(&n.Count)
		c.float(&n.Weight)
		c.floats(&n.Vec)
	})
	c.ints(&m.UpdateIDs)
	if c.has(len(m.Params) > 0) && !c.enc {
		m.Params = c.dec.Rest()
	}
}

// WriteMessage writes one length-prefixed frame.
func WriteMessage(w io.Writer, m *Message) error {
	_, err := WriteMessageCount(w, m)
	return err
}

// WriteMessageCount writes one frame and returns the bytes put on the
// wire (length prefix included) — the quantity telemetry byte counters
// track. The head and m.Params go out as one vectored write (a single
// writev on a TCP connection), so Params is never copied.
func WriteMessageCount(w io.Writer, m *Message) (int, error) {
	c := codec{enc: true, bit: 1, buf: make([]byte, headLen, 64)}
	m.walk(&c)
	body := len(c.buf) - 4 + len(m.Params)
	if body > maxFrame {
		return 0, fmt.Errorf("fednet: encode %v: frame of %d bytes exceeds limit", m.Type, body)
	}
	binary.BigEndian.PutUint32(c.buf, uint32(body))
	c.buf[4], c.buf[5] = wireVersion, byte(m.Type)
	binary.LittleEndian.PutUint32(c.buf[6:], c.mask)
	bufs := net.Buffers{c.buf, m.Params}
	if len(m.Params) == 0 {
		bufs = bufs[:1] // an empty Write is still an operation to a net.Pipe or a fault plan
	}
	n, err := bufs.WriteTo(w)
	if err != nil {
		return int(n), fmt.Errorf("fednet: write frame: %w", err)
	}
	return int(n), nil
}

// ReadMessage reads one length-prefixed frame into a fresh buffer.
func ReadMessage(r io.Reader) (*Message, error) {
	m, _, err := ReadMessageCount(r)
	return m, err
}

// ReadMessageCount reads one frame and returns the bytes consumed off the
// wire (length prefix included).
func ReadMessageCount(r io.Reader) (*Message, int, error) {
	return new(frameReader).read(r)
}

// frameReader owns the buffer one stream's frames are read into, so a
// long-lived connection decodes every frame in place instead of allocating
// per frame. The price is a lifetime rule: a decoded Message's Params
// aliases the buffer and is valid only until the next read through the same
// frameReader. Every other field is decoded into storage of its own.
type frameReader struct {
	buf []byte
	// The length prefix and the decode state are kept here rather than built
	// per frame, so a read allocates nothing but the Message it returns.
	prefix [4]byte
	dec    wire.Decoder
}

func (fr *frameReader) read(r io.Reader) (*Message, int, error) {
	if _, err := io.ReadFull(r, fr.prefix[:]); err != nil {
		return nil, 0, fmt.Errorf("fednet: read frame length: %w", err)
	}
	n := int(binary.BigEndian.Uint32(fr.prefix[:]))
	if n > maxFrame {
		return nil, 4, fmt.Errorf("fednet: frame of %d bytes exceeds limit", n)
	}
	// A frame the buffer already holds is read in one piece; a larger one
	// grows the buffer chunk-by-chunk as bytes arrive, so the allocation
	// tracks the data actually received rather than the claimed length.
	body := fr.buf[:0]
	for len(body) < n {
		start := len(body)
		end := start + min(n-start, max(readChunk, cap(body)-start))
		body = slices.Grow(body, end-start)[:end]
		if _, err := io.ReadFull(r, body[start:]); err != nil {
			return nil, 4 + start, fmt.Errorf("fednet: read frame: %w", err)
		}
	}
	fr.buf = body
	if n < headLen-4 {
		return nil, 4 + n, fmt.Errorf("fednet: decode frame: %d-byte body is shorter than a frame head", n)
	}
	if body[0] != wireVersion {
		return nil, 4 + n, fmt.Errorf("fednet: decode frame: wire version %d, this build speaks %d — both peers must run the same build", body[0], wireVersion)
	}
	m := &Message{Type: MsgType(body[1])}
	fr.dec.Reset(body[6:])
	c := codec{mask: binary.LittleEndian.Uint32(body[2:]), bit: 1, dec: &fr.dec}
	m.walk(&c)
	if err := c.dec.Err(); err != nil {
		return nil, 4 + n, fmt.Errorf("fednet: decode frame: %v: %w", m.Type, err)
	}
	if rest := c.dec.Rest(); len(rest) > 0 || c.mask >= c.bit {
		return nil, 4 + n, fmt.Errorf("fednet: decode frame: %v: %d trailing bytes, mask %#x", m.Type, len(rest), c.mask)
	}
	return m, 4 + n, nil
}

func typeMismatch(got, want MsgType) error {
	return fmt.Errorf("fednet: got %v, want %v", got, want)
}

// setDeadline applies a deadline when the connection supports it.
func setDeadline(c net.Conn, d time.Duration) {
	if d > 0 {
		_ = c.SetDeadline(time.Now().Add(d))
	}
}

// clearDeadline removes any pending deadline: a late joiner that received
// its warm handoff mid-round may wait much longer than one frame timeout
// for the next distribution.
func clearDeadline(c net.Conn) { _ = c.SetDeadline(time.Time{}) }
