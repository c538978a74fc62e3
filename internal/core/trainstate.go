package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
	"fedmigr/internal/wire"
)

// TrainStateVersion is the current wire version of a serialized
// TrainState. Versioning rules (see DESIGN.md §4d and the checkpoint
// docs): the 4-byte magic and big-endian uint32 version header never
// change; a decoder rejects every version but the ones it has a decoder
// for with a pointed error instead of mis-decoding it. Bump the version —
// never reuse it — whenever a field changes meaning or layout. v1 was a
// gob body; v2 is the fixed-width body Marshal documents. Blobs exist only
// in flight between nodes of one session (nothing stores one), so no v1
// decoder is kept.
const TrainStateVersion = 2

// trainStateMagic brands a TrainState blob so foreign bytes fail fast.
var trainStateMagic = [4]byte{'F', 'M', 'T', 'S'}

// TrainState is the in-flight training state of one model replica,
// captured mid-round so a dying or departing node's partial work can
// migrate to a live node instead of being discarded (FedFly-style live
// migration). It carries everything a resume needs to be bit-identical to
// an uninterrupted epoch:
//
//   - the model parameters and the optimizer's momentum buffers
//     (flattened in parameter order);
//   - the batch cursor and the epoch's batch visiting order — the
//     materialized position of the replica's RNG stream. RNG streams are
//     replayed from Seed, never raw-serialized: the only draw inside an
//     epoch is the order shuffle, and storing its product pins the
//     stream's position exactly;
//   - the partial-epoch loss accumulator, so the finished epoch reports
//     the same average loss an uninterrupted run would.
type TrainState struct {
	Version int
	ModelID int   // replica identity (model m / home client id)
	Epoch   int   // the interrupted epoch
	Seed    int64 // the (run seed, epoch, model) stream seed the order was drawn from

	Order       []int // batch visiting order for the whole epoch
	BatchCursor int   // mini-batches already trained (index into Order)
	NumBatches  int   // total mini-batches in the epoch
	LossSum     float64

	LR       float64
	Momentum float64
	Params   []float64
	Velocity []float64 // momentum buffers in parameter order; nil when none

	// Effective-distribution bookkeeping travels with the replica so the
	// receiving runtime can keep Eq. (12)'s virtual dataset consistent.
	EffDist []float64
	EffSeen float64
}

// CaptureTrainState snapshots a replica's in-flight state at the given
// batch cursor. The snapshot copies every slice it stores, so later
// training on the source replica cannot corrupt an in-flight blob.
func CaptureTrainState(modelID, epoch int, seed int64, order []int, cursor int, lossSum float64, model *nn.Sequential, opt *nn.SGD) *TrainState {
	ts := &TrainState{
		Version:     TrainStateVersion,
		ModelID:     modelID,
		Epoch:       epoch,
		Seed:        seed,
		Order:       append([]int(nil), order...),
		BatchCursor: cursor,
		NumBatches:  len(order),
		LossSum:     lossSum,
	}
	if opt != nil {
		ts.LR = opt.LR
		ts.Momentum = opt.Momentum
		ts.Velocity = opt.ExportVelocity(model)
	}
	ts.Params = append([]float64(nil), model.ParamVector().Data()...)
	return ts
}

// Restore installs the captured state onto a (possibly freshly
// materialized) replica and optimizer on the receiving node: parameters,
// learning rate, momentum and its buffers. The batch cursor and order stay
// on ts — the caller resumes training over Order[BatchCursor:].
func (ts *TrainState) Restore(model *nn.Sequential, opt *nn.SGD) error {
	if model.NumParams() != len(ts.Params) {
		return fmt.Errorf("core: TrainState has %d parameters, model wants %d", len(ts.Params), model.NumParams())
	}
	model.SetParamVector(tensor.FromSlice(ts.Params, len(ts.Params)))
	if opt != nil {
		opt.LR = ts.LR
		opt.Momentum = ts.Momentum
		if err := opt.ImportVelocity(model, ts.Velocity); err != nil {
			return err
		}
	}
	return nil
}

// Marshal serializes the state as magic ‖ version ‖ body. The body is every
// field but Version in declaration order, fixed-width little-endian
// (internal/wire): ints and floats as 8 bytes, slices as a uint32 count
// and their elements.
func (ts *TrainState) Marshal() ([]byte, error) {
	b := make([]byte, 8, 128+8*(len(ts.Order)+len(ts.Params)+len(ts.Velocity)+len(ts.EffDist)))
	copy(b, trainStateMagic[:])
	binary.BigEndian.PutUint32(b[4:], TrainStateVersion)
	b = wire.AppendInt(b, ts.ModelID)
	b = wire.AppendInt(b, ts.Epoch)
	b = wire.AppendInt64(b, ts.Seed)
	b = wire.AppendInts(b, ts.Order)
	b = wire.AppendInt(b, ts.BatchCursor)
	b = wire.AppendInt(b, ts.NumBatches)
	b = wire.AppendFloat(b, ts.LossSum)
	b = wire.AppendFloat(b, ts.LR)
	b = wire.AppendFloat(b, ts.Momentum)
	b = wire.AppendFloats(b, ts.Params)
	b = wire.AppendFloats(b, ts.Velocity)
	b = wire.AppendFloats(b, ts.EffDist)
	return wire.AppendFloat(b, ts.EffSeen), nil
}

// UnmarshalTrainState decodes a blob produced by Marshal. Blobs from a
// newer or older build (version ≠ TrainStateVersion) are rejected with a
// pointed error rather than silently mis-decoded.
func UnmarshalTrainState(b []byte) (*TrainState, error) {
	if len(b) < 8 || !bytes.Equal(b[:4], trainStateMagic[:]) {
		return nil, fmt.Errorf("core: not a TrainState blob (bad magic)")
	}
	ver := binary.BigEndian.Uint32(b[4:8])
	if ver == 0 || ver > TrainStateVersion {
		return nil, fmt.Errorf("core: TrainState version %d is newer than this build understands (max %d) — upgrade the receiving node", ver, TrainStateVersion)
	}
	if ver < TrainStateVersion {
		return nil, fmt.Errorf("core: TrainState version %d is older than this build understands (min %d) — upgrade the sending node", ver, TrainStateVersion)
	}
	var d wire.Decoder
	d.Reset(b[8:])
	ts := &TrainState{ // calls inside a composite literal run in source order
		Version: int(ver), ModelID: d.Int(), Epoch: d.Int(), Seed: d.Int64(),
		Order: d.Ints(), BatchCursor: d.Int(), NumBatches: d.Int(), LossSum: d.Float(),
		LR: d.Float(), Momentum: d.Float(),
		Params: d.Floats(), Velocity: d.Floats(), EffDist: d.Floats(), EffSeen: d.Float(),
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: decode TrainState v%d: %w", ver, err)
	}
	if rest := d.Rest(); len(rest) > 0 {
		return nil, fmt.Errorf("core: decode TrainState v%d: %d trailing bytes", ver, len(rest))
	}
	if ts.BatchCursor < 0 || ts.BatchCursor > len(ts.Order) {
		return nil, fmt.Errorf("core: TrainState batch cursor %d outside [0,%d]", ts.BatchCursor, len(ts.Order))
	}
	return ts, nil
}
