package core

import (
	"testing"

	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

func TestClientFractionValidation(t *testing.T) {
	if err := (Config{ClientFraction: -0.1}).Validate(); err == nil {
		t.Fatal("negative fraction must fail")
	}
	if err := (Config{ClientFraction: 1.1}).Validate(); err == nil {
		t.Fatal("fraction > 1 must fail")
	}
	if err := (Config{ClientFraction: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectParticipantsCount(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 8, 2, true, 21)
	cfg := Config{Scheme: FedAvg, ClientFraction: 0.5, MaxEpochs: 1, Seed: 21}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.selectParticipants()
	n := 0
	for _, p := range tr.participants {
		if p {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("selected %d of 8 at α=0.5", n)
	}
}

func TestSelectParticipantsAllWhenFull(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, true, 22)
	for _, frac := range []float64{0, 1} {
		cfg := Config{Scheme: FedAvg, ClientFraction: frac, MaxEpochs: 1, Seed: 22}
		tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.selectParticipants()
		for i, p := range tr.participants {
			if !p {
				t.Fatalf("α=%v left client %d out", frac, i)
			}
		}
	}
}

func TestSelectParticipantsAtLeastOne(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, true, 23)
	cfg := Config{Scheme: FedAvg, ClientFraction: 0.01, MaxEpochs: 1, Seed: 23}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.selectParticipants()
	n := 0
	for _, p := range tr.participants {
		if p {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("tiny α must select exactly one client, got %d", n)
	}
}

func TestPartialParticipationRunsAndReducesTraffic(t *testing.T) {
	full := runScheme2(t, FedAvg, Config{MaxEpochs: 8, AggEvery: 1}, 8, 2, true, nil, 24)
	partial := runScheme2(t, FedAvg, Config{MaxEpochs: 8, AggEvery: 1, ClientFraction: 0.25}, 8, 2, true, nil, 24)
	if partial.Snapshot.TotalBytes >= full.Snapshot.TotalBytes {
		t.Fatalf("α=0.25 traffic %d not below full %d",
			partial.Snapshot.TotalBytes, full.Snapshot.TotalBytes)
	}
	if partial.Epochs != 8 {
		t.Fatalf("partial run stopped at %d", partial.Epochs)
	}
}

func TestPartialParticipationStillLearns(t *testing.T) {
	res := runScheme2(t, FedAvg, Config{MaxEpochs: 20, AggEvery: 1, ClientFraction: 0.5, LR: 0.1}, 4, 2, true, nil, 25)
	if res.BestAcc() < 0.4 {
		t.Fatalf("α=0.5 accuracy %v too low", res.BestAcc())
	}
}

func TestMigrationRespectsParticipation(t *testing.T) {
	// With α=0.5 the migrator must not route models to unselected clients.
	clients, topo, test, factory := buildSetup(t, 8, 2, false, 26)
	rec := &recordingMigrator{}
	cfg := Config{Scheme: FedMigr, ClientFraction: 0.5, MaxEpochs: 8, AggEvery: 4, Seed: 26}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, rec)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	if len(rec.states) == 0 {
		t.Fatal("migrator never consulted")
	}
	for _, st := range rec.states {
		engaged := 0
		for _, a := range st.Active {
			if a {
				engaged++
			}
		}
		if engaged != 4 {
			t.Fatalf("state shows %d engaged clients at α=0.5 of 8", engaged)
		}
	}
}

type recordingMigrator struct {
	states []*State
}

func (r *recordingMigrator) Plan(s *State) []int {
	r.states = append(r.states, s)
	return append([]int(nil), s.Locations...)
}

func (r *recordingMigrator) Feedback(*State, []int, *State, bool, bool) {}

func TestLRScheduleApplied(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, true, 27)
	cfg := Config{
		Scheme: FedAvg, MaxEpochs: 4, AggEvery: 1, Seed: 27,
		LR:         1, // overridden by the schedule
		LRSchedule: nn.StepLR{Base: 0.1, StepSize: 2, Gamma: 0.5},
	}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	// After 4 epochs the last applied LR is schedule.LR(3) = 0.05.
	if got := tr.opts[0].LR; got != 0.05 {
		t.Fatalf("optimizer LR %v, want 0.05 from schedule", got)
	}
}

func TestAggregateSkipsNonParticipants(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, true, 28)
	cfg := Config{Scheme: FedAvg, MaxEpochs: 1, AggEvery: 1, Seed: 28}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Manually mark only client 0 as participant and give its model a
	// known constant; the aggregate must equal that constant exactly.
	tr.markParticipants([]int{0})
	n := tr.global.NumParams()
	for m := range tr.models {
		tr.models[m].SetParamVector(tensor.Full(float64(m+1), n))
	}
	tr.aggregate()
	if got := tr.global.ParamVector().Data()[0]; got != 1 {
		t.Fatalf("aggregate %v, want participant-only mean 1", got)
	}
}
