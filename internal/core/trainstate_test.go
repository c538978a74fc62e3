package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"fedmigr/internal/edgenet"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/telemetry"
)

func TestTrainStateCodecRoundTrip(t *testing.T) {
	clients, _, _, factory := buildSetup(t, 4, 2, false, 41)
	model := factory()
	opt := nn.NewSGDMomentum(0.05, 0.7)
	// Train a couple of batches so parameters and momentum buffers are
	// non-trivial.
	tr := &Trainer{cfg: Config{BatchSize: 8}.withDefaults()}
	tr.cfg.BatchSize = 8
	order := tr.epochBatchOrder(clients[0].Data, 0)
	lossSum := tr.trainBatches(model, opt, clients[0].Data, nil, order[:2])

	ts := CaptureTrainState(3, 5, 1234, order, 2, lossSum, model, opt)
	blob, err := ts.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTrainState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != TrainStateVersion || got.ModelID != 3 || got.Epoch != 5 ||
		got.Seed != 1234 || got.BatchCursor != 2 || got.NumBatches != len(order) ||
		got.LossSum != lossSum {
		t.Fatalf("decoded header fields wrong: %+v", got)
	}
	// Restoring onto a freshly materialized replica must reproduce the
	// source bit-for-bit: parameters, momentum buffers, LR, momentum.
	fresh := factory()
	freshOpt := nn.NewSGD(0) // deliberately wrong hyperparameters
	if err := got.Restore(fresh, freshOpt); err != nil {
		t.Fatal(err)
	}
	if freshOpt.LR != 0.05 || freshOpt.Momentum != 0.7 {
		t.Fatalf("optimizer hyperparameters not restored: %+v", freshOpt)
	}
	want := model.ParamVector().Data()
	have := fresh.ParamVector().Data()
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("param %d differs after round-trip: %v vs %v", i, want[i], have[i])
		}
	}
	wv, hv := opt.ExportVelocity(model), freshOpt.ExportVelocity(fresh)
	if len(wv) == 0 || len(wv) != len(hv) {
		t.Fatalf("velocity lengths %d vs %d", len(wv), len(hv))
	}
	for i := range wv {
		if wv[i] != hv[i] {
			t.Fatalf("velocity %d differs after round-trip: %v vs %v", i, wv[i], hv[i])
		}
	}
}

func TestTrainStateCodecRejectsForeignAndNewerBlobs(t *testing.T) {
	if _, err := UnmarshalTrainState([]byte("not a trainstate")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic must be a pointed error, got %v", err)
	}
	ts := &TrainState{Version: TrainStateVersion}
	blob, err := ts.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(blob[4:8], TrainStateVersion+1)
	if _, err := UnmarshalTrainState(blob); err == nil ||
		!strings.Contains(err.Error(), "newer") {
		t.Fatalf("newer version must be rejected with a pointed error, got %v", err)
	}
	// v1 was a gob body; no decoder for it is kept, and the rejection says
	// which side is behind.
	binary.BigEndian.PutUint32(blob[4:8], 1)
	if _, err := UnmarshalTrainState(blob); err == nil ||
		!strings.Contains(err.Error(), "version 1 is older") {
		t.Fatalf("a v1 blob must be rejected with a pointed error, got %v", err)
	}
	// A body cut short or run long is an error, not a partial state.
	binary.BigEndian.PutUint32(blob[4:8], TrainStateVersion)
	for _, bad := range [][]byte{blob[:len(blob)-1], blob[:20], append(blob[:len(blob):len(blob)], 0)} {
		if _, err := UnmarshalTrainState(bad); err == nil || !strings.Contains(err.Error(), "decode TrainState v2") {
			t.Fatalf("a %d-byte body of a %d-byte blob must fail to decode, got %v", len(bad), len(blob), err)
		}
	}
	// A corrupt cursor must not survive decoding.
	bad := &TrainState{Version: TrainStateVersion, BatchCursor: 7, Order: []int{0, 1}}
	blob2, err := bad.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalTrainState(blob2); err == nil {
		t.Fatal("out-of-range cursor must be rejected")
	}
}

// midCrashRun runs a 4-client FedAvg session with (or without) a mid-epoch
// crash of client 2 at epoch 2 after 1 batch, and returns the trainer.
func midCrashRun(t *testing.T, crash bool, workers int) *Trainer {
	t.Helper()
	clients, topo, test, factory := buildSetup(t, 4, 2, false, 42)
	var plan *faults.Plan
	if crash {
		plan = faults.NewPlan(42).CrashMidEpoch(2, 2, 1)
	}
	cfg := Config{
		Scheme: FedAvg, MaxEpochs: 3, AggEvery: 1, Seed: 42,
		BatchSize: 8, Momentum: 0.6, ShuffleBatches: true,
		Faults: plan, Workers: workers,
	}
	tr, err := NewTrainer(cfg, clients, topo, edgenet.DefaultCostModel(), test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Run()
	if res.Epochs != 3 {
		t.Fatalf("run stopped at epoch %d", res.Epochs)
	}
	return tr
}

// TestMidEpochRescueBitIdentical is the tentpole invariant: a client
// crashed mid-epoch has its TrainState captured through the wire codec,
// migrated to another node, and resumed there — and every replica ends the
// interrupted epoch bit-identical to an uninterrupted run. Migration loses
// zero work and perturbs zero bits.
func TestMidEpochRescueBitIdentical(t *testing.T) {
	crashed := midCrashRun(t, true, 1)
	clean := midCrashRun(t, false, 1)
	for m := range clean.Models() {
		want := clean.Models()[m].ParamVector().Data()
		have := crashed.Models()[m].ParamVector().Data()
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("model %d param %d diverged after rescue: %v vs %v", m, i, want[i], have[i])
			}
		}
	}
	if crashed.StateMigrations() != 1 {
		t.Fatalf("state migrations = %d, want 1", crashed.StateMigrations())
	}
	// The interrupted replica now lives on the rescuer (lowest-id engaged
	// client ≠ victim), not on the dead client.
	if loc := crashed.Locations()[2]; loc != 0 {
		t.Fatalf("rescued model hosted on %d, want 0", loc)
	}
	if loc := clean.Locations()[2]; loc != 2 {
		t.Fatalf("uninterrupted model moved to %d", loc)
	}
}

// TestMidEpochRescueWorkerInvariant: the rescue path must not break the
// §5 invariant — results are bit-identical for any worker count.
func TestMidEpochRescueWorkerInvariant(t *testing.T) {
	serial := midCrashRun(t, true, 1)
	parallel := midCrashRun(t, true, 4)
	for m := range serial.Models() {
		want := serial.Models()[m].ParamVector().Data()
		have := parallel.Models()[m].ParamVector().Data()
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("model %d param %d depends on worker count: %v vs %v", m, i, want[i], have[i])
			}
		}
	}
	if serial.StateMigrations() != parallel.StateMigrations() {
		t.Fatalf("migration counts differ across worker counts: %d vs %d",
			serial.StateMigrations(), parallel.StateMigrations())
	}
}

// TestJoinersEnterNextRound: a client with a scheduled arrival is absent —
// inactive, not a participant, zero aggregation weight — until its join
// epoch, and participates from the next distribution on.
func TestJoinersEnterNextRound(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, false, 43)
	plan := faults.NewPlan(43).JoinAt(3, 2)
	cfg := Config{Scheme: FedAvg, MaxEpochs: 4, AggEvery: 1, Seed: 43, BatchSize: 8, Faults: plan}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.applyFaults()
	tr.selectParticipants()
	if tr.active[3] || tr.participants[3] {
		t.Fatal("pre-join client must be inactive and excluded from participation")
	}
	if !tr.active[0] || !tr.participants[0] {
		t.Fatal("resident clients must be unaffected by someone else's arrival")
	}
	tr.epoch = 2
	tr.applyFaults()
	tr.selectParticipants()
	if !tr.active[3] || !tr.participants[3] {
		t.Fatal("joiner must be active and participating from its join epoch")
	}

	// A full run across the join completes cleanly and registers the
	// membership transitions (absent at epoch 0, joined at epoch 2).
	tr2, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	tr2.SetTelemetry(tel)
	if res := tr2.Run(); res.Epochs != 4 {
		t.Fatalf("join run stopped at epoch %d", res.Epochs)
	}
	if got := tel.Counter("core_fault_transitions_total").Value(); got != 2 {
		t.Fatalf("membership transitions = %d, want 2 (absent, then joined)", got)
	}
}

// TestChurnRunDeterministic: a run under a dense seeded arrival process
// with a graceful leave and a mid-epoch crash replays bit-identically.
func TestChurnRunDeterministic(t *testing.T) {
	run := func() *Result {
		clients, topo, test, factory := buildSetup(t, 6, 2, false, 44)
		plan := faults.NewPlan(44).
			Arrivals(4, 2, 1, 3). // clients 4,5 arrive in [1,3)
			LeaveAt(1, 3).
			CrashMidEpoch(2, 2, 1)
		cfg := Config{Scheme: FedAvg, MaxEpochs: 5, AggEvery: 1, Seed: 44,
			BatchSize: 8, ShuffleBatches: true, Faults: plan}
		tr, err := NewTrainer(cfg, clients, topo, edgenet.DefaultCostModel(), test, factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Run()
	}
	a, b := run(), run()
	if a.FinalLoss != b.FinalLoss || a.FinalAcc != b.FinalAcc {
		t.Fatalf("churn run non-deterministic: %v/%v vs %v/%v", a.FinalLoss, a.FinalAcc, b.FinalLoss, b.FinalAcc)
	}
	if a.Snapshot != b.Snapshot {
		t.Fatalf("churn accounting non-deterministic: %+v vs %+v", a.Snapshot, b.Snapshot)
	}
}

// TestTrainStateCodecKeepsEveryField: every field Marshal is documented to
// carry comes back bit for bit, including the ones no runtime path sets yet.
func TestTrainStateCodecKeepsEveryField(t *testing.T) {
	in := &TrainState{
		Version: TrainStateVersion, ModelID: 3, Epoch: 5, Seed: -1 << 40,
		Order: []int{2, 0, 1}, BatchCursor: 1, NumBatches: 3, LossSum: 1.25,
		LR: 0.05, Momentum: 0.9, Params: []float64{1, -2, math.Copysign(0, -1)},
		Velocity: []float64{0.5, 0.25, 0}, EffDist: []float64{0.25, 0.75}, EffSeen: 40,
	}
	blob, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalTrainState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) || !math.Signbit(out.Params[2]) {
		t.Fatalf("round trip changed the state:\n in  %+v\n out %+v", in, out)
	}
	// Fixed-width fields: the size is a function of the slice lengths only.
	if want := 8 + 9*8 + 4*4 + 8*(3+3+3+2); len(blob) != want {
		t.Fatalf("blob is %d bytes, want %d", len(blob), want)
	}
}

// FuzzUnmarshalTrainState drives the blob decoder with arbitrary bytes: it
// must error or return a state — never panic, never allocate beyond what
// the bytes present can fill — and an accepted blob re-marshals to itself.
func FuzzUnmarshalTrainState(f *testing.F) {
	valid, _ := (&TrainState{ModelID: 1, Order: []int{0, 1}, BatchCursor: 1, NumBatches: 2,
		Params: []float64{1, 2}, Velocity: []float64{3, 4}, LR: 0.1}).Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:8])
	f.Add([]byte("FMTS\x00\x00\x00\x02\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("not a trainstate"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := UnmarshalTrainState(data)
		if err != nil {
			if ts != nil {
				t.Fatalf("non-nil state alongside error %v", err)
			}
			return
		}
		again, err := ts.Marshal()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted blob does not re-marshal to itself (%v)", err)
		}
	})
}

// requireZeroGrads fails unless every gradient of m is +0.
func requireZeroGrads(t *testing.T, what string, m *nn.Sequential) {
	t.Helper()
	_, gs := m.Params()
	for i, g := range gs {
		for j, v := range g.Data() {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: gradient %d[%d] = %v, want +0", what, i, j, v)
			}
		}
	}
}

// TestReplicaGradientsZero pins, on the core side, the invariant that lets
// trainBatches skip ZeroGrad (nn.SGD.Step): gradients are +0 on a replica
// after its batches, after TrainState.Restore onto a fresh replica, and on
// a cohort replica recycled through dehydrate and hydrate.
func TestReplicaGradientsZero(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 8, 2, false, 43)
	model, opt := factory(), nn.NewSGDMomentum(0.05, 0.7)
	tr := &Trainer{cfg: Config{BatchSize: 8}.withDefaults()}
	order := tr.epochBatchOrder(clients[0].Data, 0)
	lossSum := tr.trainBatches(model, opt, clients[0].Data, nil, order[:2])
	requireZeroGrads(t, "after trainBatches", model)
	blob, err := CaptureTrainState(0, 1, 7, order, 2, lossSum, model, opt).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := UnmarshalTrainState(blob)
	if err != nil {
		t.Fatal(err)
	}
	fresh := factory()
	if err := ts.Restore(fresh, nn.NewSGD(0)); err != nil {
		t.Fatal(err)
	}
	requireZeroGrads(t, "after TrainState.Restore", fresh)

	cfg := Config{Scheme: FedAvg, MaxEpochs: 100, AggEvery: 1, BatchSize: 8, Seed: 43, CohortSize: 3}
	cohort, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		cohort.RunRound(nil)
		for m, rep := range cohort.models {
			if rep != nil {
				requireZeroGrads(t, fmt.Sprintf("round %d: hydrated replica %d", r, m), rep)
			}
		}
	}
	// Retire one trained replica and hydrate a client outside the cohort:
	// the free list hands it that very replica.
	out, in := -1, -1
	for m, rep := range cohort.models {
		if rep != nil && out < 0 {
			out = m
		} else if rep == nil && in < 0 {
			in = m
		}
	}
	if out < 0 || in < 0 {
		t.Fatalf("cohort of 3 in 8 clients: no hydrated (%d) or idle (%d) client", out, in)
	}
	rep := cohort.models[out]
	cohort.dehydrate(out)
	cohort.hydrate(in)
	if cohort.models[in] != rep {
		t.Fatal("hydrate did not recycle the dehydrated replica")
	}
	requireZeroGrads(t, "recycled replica", rep)
}
