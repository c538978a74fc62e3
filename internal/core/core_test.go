package core

import (
	"math"
	"testing"

	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/privacy"
	"fedmigr/internal/stats"
	"fedmigr/internal/tensor"
)

// tinyWorkload builds a small FL setup: `k` clients over `lans` LANs with a
// one-class-per-client non-IID partition of a synthetic 4-class problem.
func tinyWorkload(t testing.TB, k, lans int, iid bool, seed int64) ([]*Client, *edgenet.Topology, *data.Dataset, ModelFactory) {
	t.Helper()
	classes := k
	if classes < 4 {
		classes = 4
	}
	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: classes, Channels: 1, Height: 4, Width: 4,
		PerClass: 12, TestPer: 6, Noise: 0.5, Seed: seed,
	})
	var parts []*data.Dataset
	if iid {
		parts = data.PartitionIID(train, k, tensor.NewRNG(seed))
	} else {
		parts = data.PartitionShards(train, k, 1, tensor.NewRNG(seed))
	}
	clients := make([]*Client, k)
	for i := range clients {
		clients[i] = &Client{ID: i, Data: parts[i]}
	}
	topo := edgenet.EvenTopology(k, lans)
	factory := func() *nn.Sequential {
		return nn.NewMLP(tensor.NewRNG(seed), 16, 24, classes)
	}
	return clients, topo, test, factory
}

func mlpFactory(seed int64, in, hidden, classes int) ModelFactory {
	return func() *nn.Sequential {
		g := tensor.NewRNG(seed)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, in, hidden), nn.NewReLU(),
			nn.NewDense(g, hidden, classes),
		)
	}
}

func buildSetup(t testing.TB, k, lans int, iid bool, seed int64) ([]*Client, *edgenet.Topology, *data.Dataset, ModelFactory) {
	t.Helper()
	clients, topo, test, _ := tinyWorkload(t, k, lans, iid, seed)
	classes := k
	if classes < 4 {
		classes = 4
	}
	return clients, topo, test, mlpFactory(seed, 16, 24, classes)
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Tau != 1 || c.AggEvery != 1 || c.BatchSize != 32 || c.MaxEpochs != 100 {
		t.Fatalf("defaults %+v", c)
	}
	bad := Config{TargetAccuracy: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	bad2 := Config{LR: -1}
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected validation error for negative LR")
	}
}

func TestNewTrainerErrors(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, true, 1)
	if _, err := NewTrainer(Config{}, nil, topo, nil, test, factory, nil); err == nil {
		t.Fatal("nil clients must error")
	}
	if _, err := NewTrainer(Config{}, clients, edgenet.EvenTopology(3, 1), nil, test, factory, nil); err == nil {
		t.Fatal("topology mismatch must error")
	}
	if _, err := NewTrainer(Config{}, clients, topo, nil, test, nil, nil); err == nil {
		t.Fatal("nil factory must error")
	}
	if _, err := NewTrainer(Config{Scheme: FedMigr}, clients, topo, nil, test, factory, nil); err == nil {
		t.Fatal("FedMigr without migrator must error")
	}
}

func TestSchemeKindString(t *testing.T) {
	names := map[SchemeKind]string{FedAvg: "FedAvg", FedProx: "FedProx", FedSwap: "FedSwap", RandMigr: "RandMigr", FedMigr: "FedMigr"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
}

func TestFedAvgLearnsIID(t *testing.T) {
	res := runScheme2(t, FedAvg, Config{MaxEpochs: 12, AggEvery: 1, LR: 0.1}, 4, 2, true, nil, 1)
	if res.FinalAcc < 0.5 {
		t.Fatalf("FedAvg IID accuracy %v too low", res.FinalAcc)
	}
	if res.Epochs != 12 {
		t.Fatalf("ran %d epochs", res.Epochs)
	}
}

// runScheme2 is runScheme with the flatten-capable factory.
func runScheme2(t testing.TB, scheme SchemeKind, cfg Config, k, lans int, iid bool, mig Migrator, seed int64) *Result {
	t.Helper()
	clients, topo, test, factory := buildSetup(t, k, lans, iid, seed)
	cfg.Scheme = scheme
	cfg.Seed = seed
	tr, err := NewTrainer(cfg, clients, topo, edgenet.DefaultCostModel(), test, factory, mig)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Run()
}

func TestAllSchemesRunAndAccount(t *testing.T) {
	migFor := func(s SchemeKind) Migrator {
		switch s {
		case RandMigr:
			return NewRandomMigrator(7)
		case FedMigr:
			return &GreedyEMDMigrator{CostWeight: 0.1}
		default:
			return nil
		}
	}
	for _, s := range []SchemeKind{FedAvg, FedProx, FedSwap, RandMigr, FedMigr} {
		cfg := Config{MaxEpochs: 10, AggEvery: 5, LR: 0.05, ProxMu: 0.01}
		if s == FedAvg || s == FedProx {
			cfg.AggEvery = 1
		}
		res := runScheme2(t, s, cfg, 4, 2, false, migFor(s), 2)
		if res.Epochs != 10 {
			t.Fatalf("%v ran %d epochs", s, res.Epochs)
		}
		if res.Snapshot.TotalBytes == 0 {
			t.Fatalf("%v recorded no traffic", s)
		}
		if res.Snapshot.WallSeconds <= 0 {
			t.Fatalf("%v recorded no wall time", s)
		}
		if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
			t.Fatalf("%v final loss %v", s, res.FinalLoss)
		}
	}
}

func TestMigrationReducesGlobalTraffic(t *testing.T) {
	// With aggregation every 5 epochs and intra-/cross-LAN migration,
	// RandMigr must move far fewer bytes over the WAN than FedAvg's
	// every-epoch aggregation.
	avg := runScheme2(t, FedAvg, Config{MaxEpochs: 10, AggEvery: 1}, 6, 2, false, nil, 3)
	mig := runScheme2(t, RandMigr, Config{MaxEpochs: 10, AggEvery: 5}, 6, 2, false, NewRandomMigrator(3), 3)
	if mig.Snapshot.GlobalBytes >= avg.Snapshot.GlobalBytes {
		t.Fatalf("RandMigr global traffic %d should be below FedAvg %d",
			mig.Snapshot.GlobalBytes, avg.Snapshot.GlobalBytes)
	}
}

func TestMigrationBeatsNoMigrationNonIID(t *testing.T) {
	// The paper's core claim at matched communication budget: with
	// aggregation every 5 epochs on one-class-per-client data, migrating
	// models between clients (FedMigr) must beat leaving them in place
	// (periodic-averaging local SGD), because migration is the only way a
	// model sees other classes between aggregations.
	cfg := Config{MaxEpochs: 30, AggEvery: 15, LR: 0.08}
	stay := runScheme2(t, FedMigr, cfg, 6, 3, false, StayMigrator{}, 4)
	mig := runScheme2(t, FedMigr, cfg, 6, 3, false, &GreedyEMDMigrator{CostWeight: 0.05}, 4)
	if mig.BestAcc() <= stay.BestAcc()+0.1 {
		t.Fatalf("FedMigr best acc %v not clearly above stay-in-place %v on non-IID", mig.BestAcc(), stay.BestAcc())
	}
}

func TestTargetAccuracyStops(t *testing.T) {
	res := runScheme2(t, FedAvg, Config{MaxEpochs: 50, AggEvery: 1, LR: 0.1, TargetAccuracy: 0.3, EvalEvery: 1}, 4, 2, true, nil, 5)
	if !res.ReachedTarget {
		t.Fatal("expected target reached")
	}
	if res.Epochs >= 50 {
		t.Fatal("should stop before MaxEpochs")
	}
}

func TestBandwidthBudgetStops(t *testing.T) {
	res := runScheme2(t, FedAvg, Config{MaxEpochs: 50, AggEvery: 1, BandwidthBudget: 1}, 4, 2, true, nil, 6)
	if !res.BudgetExhausted {
		t.Fatal("expected budget exhaustion")
	}
	if res.Epochs >= 50 {
		t.Fatal("should stop early on budget")
	}
}

func TestComputeBudgetStops(t *testing.T) {
	res := runScheme2(t, FedAvg, Config{MaxEpochs: 50, AggEvery: 1, ComputeBudget: 1e-6}, 4, 2, true, nil, 7)
	if !res.BudgetExhausted {
		t.Fatal("expected compute budget exhaustion")
	}
}

func TestTimeBudgetStops(t *testing.T) {
	res := runScheme2(t, FedAvg, Config{MaxEpochs: 50, AggEvery: 1, TimeBudget: 1e-9}, 4, 2, true, nil, 8)
	if !res.BudgetExhausted {
		t.Fatal("expected time budget exhaustion")
	}
}

// TestRunBillsEveryRound: a jitter-free flat FedAvg run of R rounds bills
// one download and one upload per client per round — the last round's
// uploads included, also when MaxEpochs cuts that round short — counts R
// rounds, and reports the accuracy of the global model it leaves behind.
func TestRunBillsEveryRound(t *testing.T) {
	const k, rounds, agg = 4, 3, 2
	for _, maxEpochs := range []int{rounds * agg, rounds*agg - 1} {
		clients, topo, test, factory := buildSetup(t, k, 2, false, 41)
		tr, err := NewTrainer(Config{Scheme: FedAvg, AggEvery: agg, MaxEpochs: maxEpochs, Seed: 41},
			clients, topo, edgenet.DefaultCostModel(), test, factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := tr.Run()
		if res.Rounds != rounds || res.Epochs != maxEpochs || len(res.History) != rounds {
			t.Fatalf("MaxEpochs %d: %d rounds, %d epochs, %d rows; want %d rounds of %d epochs, one row each",
				maxEpochs, res.Rounds, res.Epochs, len(res.History), rounds, maxEpochs)
		}
		if want := 2 * rounds * k * tr.GlobalModel().ByteSize(); res.Snapshot.C2SBytes != want {
			t.Fatalf("MaxEpochs %d: C2S bytes %d, want 2·R·K·model = %d", maxEpochs, res.Snapshot.C2SBytes, want)
		}
		if got := evalModel(tr.GlobalModel(), test); got != res.FinalAcc {
			t.Fatalf("MaxEpochs %d: global model scores %v, FinalAcc says %v", maxEpochs, got, res.FinalAcc)
		}
	}
}

// TestTargetStopClosesRound: a target reached mid-round (AggEvery 5,
// evaluated every epoch) ends the run on a closed round — cut short at the
// stopping epoch, aggregated, billed and counted — and that epoch gets one
// history row, the closed round's.
func TestTargetStopClosesRound(t *testing.T) {
	const k, agg = 4, 5
	run := func(target float64) (*Trainer, *Result) {
		clients, topo, test, factory := buildSetup(t, k, 2, true, 43)
		tr, err := NewTrainer(Config{Scheme: FedAvg, AggEvery: agg, EvalEvery: 1, MaxEpochs: 40,
			LR: 0.1, TargetAccuracy: target, Seed: 43}, clients, topo, edgenet.DefaultCostModel(), test, factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr, tr.Run()
	}
	// The target is the first mid-round accuracy that beats every earlier
	// row, so the stop fires at that epoch and nowhere before it.
	_, free := run(0)
	stopAt, target, best := -1, 0.0, 0.0
	for _, m := range free.History {
		if m.TestAcc > best && m.Epoch%agg != 0 {
			stopAt, target = m.Epoch, m.TestAcc
			break
		}
		best = max(best, m.TestAcc)
	}
	if stopAt < 0 {
		t.Fatal("fixture: no mid-round accuracy ever beats the earlier rows")
	}

	tr, res := run(target)
	wantRounds := (stopAt + agg - 1) / agg
	if !res.ReachedTarget || res.Epochs != stopAt || res.Rounds != wantRounds {
		t.Fatalf("stop: reached %v at epoch %d after %d rounds; want the target at epoch %d, round %d closed",
			res.ReachedTarget, res.Epochs, res.Rounds, stopAt, wantRounds)
	}
	last := res.History[len(res.History)-1]
	if last.Epoch != stopAt || last.Round != wantRounds {
		t.Fatalf("last row at epoch %d round %d, want the closed round %d at epoch %d", last.Epoch, last.Round, wantRounds, stopAt)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Epoch <= res.History[i-1].Epoch {
			t.Fatalf("epoch %d has two history rows", res.History[i].Epoch)
		}
	}
	if want := 2 * int64(wantRounds*k) * tr.GlobalModel().ByteSize(); res.Snapshot.C2SBytes != want {
		t.Fatalf("C2S bytes %d, want %d: the cut round's uploads must be billed", res.Snapshot.C2SBytes, want)
	}
	if got := evalModel(tr.GlobalModel(), tr.test); got != res.FinalAcc {
		t.Fatalf("global model scores %v, FinalAcc says %v", got, res.FinalAcc)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := runScheme2(t, RandMigr, Config{MaxEpochs: 8, AggEvery: 4}, 4, 2, false, NewRandomMigrator(11), 9)
	b := runScheme2(t, RandMigr, Config{MaxEpochs: 8, AggEvery: 4}, 4, 2, false, NewRandomMigrator(11), 9)
	if a.FinalLoss != b.FinalLoss || a.FinalAcc != b.FinalAcc {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.FinalLoss, a.FinalAcc, b.FinalLoss, b.FinalAcc)
	}
	if a.Snapshot != b.Snapshot {
		t.Fatalf("accounting non-deterministic: %+v vs %+v", a.Snapshot, b.Snapshot)
	}
}

func TestClientChurn(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, false, 10)
	cfg := Config{Scheme: RandMigr, MaxEpochs: 8, AggEvery: 4, Seed: 10}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, NewRandomMigrator(1))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetActive(3, false) // client 3 leaves before training
	res := tr.Run()
	if res.Epochs != 8 {
		t.Fatalf("churn run stopped at %d", res.Epochs)
	}
	// Model 3 must stay parked at its (inactive) home.
	for _, l := range tr.Locations() {
		if l == 3 {
			// Allowed only for model 3 itself, which never trained/moved.
			continue
		}
	}
}

func TestZeroSizeClientDataset(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, false, 12)
	clients[2].Data = clients[2].Data.Subset(nil) // failure injection: empty dataset
	cfg := Config{Scheme: FedAvg, MaxEpochs: 4, AggEvery: 1, Seed: 12}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Run()
	if math.IsNaN(res.FinalLoss) {
		t.Fatal("empty client dataset produced NaN loss")
	}
}

func TestHistoryMonotoneEpochs(t *testing.T) {
	res := runScheme2(t, FedAvg, Config{MaxEpochs: 10, AggEvery: 1, EvalEvery: 2}, 4, 2, true, nil, 13)
	prev := -1
	for _, m := range res.History {
		if m.Epoch <= prev {
			t.Fatalf("history epochs not increasing: %v", res.History)
		}
		prev = m.Epoch
	}
}

func TestEpochsToAccuracy(t *testing.T) {
	r := &Result{History: []RoundMetrics{{Epoch: 2, TestAcc: 0.1}, {Epoch: 4, TestAcc: 0.6}}}
	if r.EpochsToAccuracy(0.5) != 4 {
		t.Fatalf("got %d", r.EpochsToAccuracy(0.5))
	}
	if r.EpochsToAccuracy(0.9) != -1 {
		t.Fatal("unreachable accuracy should be -1")
	}
	if r.BestAcc() != 0.6 {
		t.Fatalf("best %v", r.BestAcc())
	}
}

func TestStayMigratorKeepsLocations(t *testing.T) {
	s := &State{Locations: []int{0, 1, 2}, Active: []bool{true, true, true}}
	d := StayMigrator{}.Plan(s)
	for i, v := range d {
		if v != i {
			t.Fatalf("stay moved model %d to %d", i, v)
		}
	}
}

func TestRandomMigratorRespectsActive(t *testing.T) {
	s := &State{Locations: []int{0, 1, 2, 3}, Active: []bool{true, false, true, false}}
	m := NewRandomMigrator(1)
	for trial := 0; trial < 50; trial++ {
		for _, d := range m.Plan(s) {
			if d == 1 || d == 3 {
				t.Fatal("random migrator routed to inactive client")
			}
		}
	}
}

func TestCrossAndWithinLANMigrators(t *testing.T) {
	topo := edgenet.GroupedTopology([][]int{{0, 1}, {2, 3}})
	s := &State{Locations: []int{0, 1, 2, 3}, Active: []bool{true, true, true, true}}
	cross := NewCrossLANMigrator(topo, 1)
	for trial := 0; trial < 20; trial++ {
		for m, d := range cross.Plan(s) {
			if topo.SameLAN(s.Locations[m], d) {
				t.Fatalf("cross-LAN migrator stayed in LAN: %d→%d", s.Locations[m], d)
			}
		}
	}
	within := NewWithinLANMigrator(topo, 1)
	for trial := 0; trial < 20; trial++ {
		for m, d := range within.Plan(s) {
			if !topo.SameLAN(s.Locations[m], d) {
				t.Fatalf("within-LAN migrator crossed LANs: %d→%d", s.Locations[m], d)
			}
			if d == s.Locations[m] {
				t.Fatalf("within-LAN migrator with a peer available must move")
			}
		}
	}
}

func TestWithinLANMigratorSingletonStays(t *testing.T) {
	topo := edgenet.GroupedTopology([][]int{{0}, {1, 2}})
	s := &State{Locations: []int{0, 1, 2}, Active: []bool{true, true, true}}
	d := NewWithinLANMigrator(topo, 1).Plan(s)
	if d[0] != 0 {
		t.Fatal("singleton LAN model must stay")
	}
}

func TestGreedyEMDMigratorPrefersDifferentData(t *testing.T) {
	s := &State{
		Locations: []int{0, 1},
		Active:    []bool{true, true},
		D: [][]float64{
			{0, 1.5}, // model 0: client 1 is very different
			{1.5, 0},
		},
		CostSeconds: [][]float64{{0, 0.1}, {0.1, 0}},
	}
	d := (&GreedyEMDMigrator{CostWeight: 0.5}).Plan(s)
	if d[0] != 1 || d[1] != 0 {
		t.Fatalf("greedy plan %v", d)
	}
	// With enormous cost weight, staying wins.
	d2 := (&GreedyEMDMigrator{CostWeight: 1000}).Plan(s)
	if d2[0] != 0 || d2[1] != 1 {
		t.Fatalf("cost-dominated plan %v", d2)
	}
}

func TestFedProxProximalPullsTowardGlobal(t *testing.T) {
	// With a huge μ and zero-ish LR the prox gradient dominates: local
	// params should stay closer to the global model than plain FedAvg.
	clients, topo, test, factory := buildSetup(t, 4, 2, false, 14)
	run := func(scheme SchemeKind, mu float64) float64 {
		cfg := Config{Scheme: scheme, MaxEpochs: 4, AggEvery: 4, ProxMu: mu, LR: 0.05, Seed: 14}
		tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.Run()
		// Distance between model 0 and the global model after local drift.
		diff := tr.models[0].ParamVector().Sub(tr.global.ParamVector())
		return diff.Norm2()
	}
	plain := run(FedAvg, 0)
	prox := run(FedProx, 10)
	if prox >= plain {
		t.Fatalf("FedProx drift %v should be below FedAvg %v", prox, plain)
	}
}

func TestEffectiveDistributionConverges(t *testing.T) {
	// After many migrations the effective mixture should approach the
	// population distribution (Eq. 13 with growing M).
	clients, topo, test, factory := buildSetup(t, 4, 2, false, 15)
	cfg := Config{Scheme: RandMigr, MaxEpochs: 20, AggEvery: 20, Seed: 15}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, NewRandomMigrator(15))
	if err != nil {
		t.Fatal(err)
	}
	popCounts := make([]float64, clients[0].Data.Classes)
	for _, c := range clients {
		for i, p := range c.Data.LabelDistribution() {
			popCounts[i] += p * float64(c.Data.Len())
		}
	}
	pop := stats.NewDistribution(popCounts)
	before := stats.EMD(tr.effDist[0], pop)
	tr.Run()
	after := stats.EMD(tr.effDist[0], pop)
	if after >= before {
		t.Fatalf("effective distribution did not approach population: %v → %v", before, after)
	}
}

func TestAggregationIsWeightedMean(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 3, 1, true, 16)
	cfg := Config{Scheme: FedAvg, MaxEpochs: 1, AggEvery: 1, Seed: 16}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Manually set model parameters to known constants and aggregate.
	n := tr.global.NumParams()
	weights := make([]float64, 3)
	total := 0.0
	for m := range tr.models {
		v := tensor.Full(float64(m+1), n)
		tr.models[m].SetParamVector(v)
		weights[m] = float64(clients[m].Data.Len())
		total += weights[m]
	}
	tr.aggregate()
	want := 0.0
	for m, w := range weights {
		want += float64(m+1) * w / total
	}
	got := tr.global.ParamVector().Data()[0]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("aggregate got %v want %v", got, want)
	}
}

func TestSwapPreservesModelMultiset(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, false, 17)
	cfg := Config{Scheme: FedSwap, MaxEpochs: 1, AggEvery: 2, Seed: 17}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Locations()
	tr.swapAtServer()
	after := tr.Locations()
	// Same multiset of hosts.
	seen := make(map[int]int)
	for _, l := range before {
		seen[l]++
	}
	for _, l := range after {
		seen[l]--
	}
	for h, c := range seen {
		if c != 0 {
			t.Fatalf("host %d count off by %d after swap", h, c)
		}
	}
	// Swap must cost C2S traffic only.
	if tr.acct.Traffic(edgenet.IntraLAN) != 0 || tr.acct.Traffic(edgenet.CrossLAN) != 0 {
		t.Fatal("swap should be pure C2S")
	}
	if tr.acct.Traffic(edgenet.C2S) == 0 {
		t.Fatal("swap recorded no C2S traffic")
	}
}

func TestMigrateInvalidDestinationStays(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 3, 1, false, 18)
	bad := &fixedMigrator{dest: []int{-1, 99, 2}}
	cfg := Config{Scheme: FedMigr, MaxEpochs: 1, AggEvery: 2, Seed: 18}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, bad)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.snapshotState(0, 0)
	action := tr.migrate(&st)
	if action[0] != 0 || action[1] != 1 {
		t.Fatalf("invalid destinations must be rewritten to stay: %v", action)
	}
	if tr.Locations()[2] != 2 {
		t.Fatal("self-migration should keep location")
	}
}

type fixedMigrator struct{ dest []int }

func (f *fixedMigrator) Plan(*State) []int                          { return append([]int(nil), f.dest...) }
func (f *fixedMigrator) Feedback(*State, []int, *State, bool, bool) {}

func TestStateBudgetFractions(t *testing.T) {
	s := &State{ComputeUsed: 25, ComputeBudget: 100, BytesUsed: 80, BytesBudget: 100}
	if s.RemainingComputeFrac() != 0.75 {
		t.Fatalf("compute frac %v", s.RemainingComputeFrac())
	}
	if math.Abs(s.RemainingBytesFrac()-0.2) > 1e-12 {
		t.Fatalf("bytes frac %v", s.RemainingBytesFrac())
	}
	unlimited := &State{}
	if unlimited.RemainingComputeFrac() != 1 || unlimited.RemainingBytesFrac() != 1 {
		t.Fatal("unlimited budgets must report 1")
	}
	over := &State{ComputeUsed: 200, ComputeBudget: 100}
	if over.RemainingComputeFrac() != 0 {
		t.Fatal("exhausted budget must clamp at 0")
	}
}

func newTestMech(t *testing.T) *privacy.Mechanism {
	t.Helper()
	m, err := privacy.NewMechanism(100, 1e-5, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPrivacyIntegration(t *testing.T) {
	clients, topo, test, factory := buildSetup(t, 4, 2, false, 19)
	mech := newTestMech(t)
	cfg := Config{Scheme: RandMigr, MaxEpochs: 6, AggEvery: 3, Privacy: mech, Seed: 19}
	tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, NewRandomMigrator(19))
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Run()
	if math.IsNaN(res.FinalLoss) {
		t.Fatal("privacy run produced NaN")
	}
	// The global model norm must respect sanitization: every uploaded
	// replica was clipped to C, so the aggregate (convex combination plus
	// noise) should be bounded well below an unclipped run's possibility.
	if res.Epochs != 6 {
		t.Fatalf("privacy run stopped at %d", res.Epochs)
	}
}

func TestOptimalAssignmentMigratorIsPermutationAndBeneficial(t *testing.T) {
	s := &State{
		Locations: []int{0, 1, 2},
		Active:    []bool{true, true, true},
		D: [][]float64{
			{0, 2, 1},
			{2, 0, 1},
			{1, 1, 0},
		},
		CostSeconds: [][]float64{{0, 0.1, 0.1}, {0.1, 0, 0.1}, {0.1, 0.1, 0}},
	}
	m := &OptimalAssignmentMigrator{CostWeight: 0.5}
	dest := m.Plan(s)
	seen := map[int]bool{}
	for _, d := range dest {
		if seen[d] {
			t.Fatalf("assignment not injective: %v", dest)
		}
		seen[d] = true
	}
	// Models 0 and 1 should swap (benefit 2 each); model 2 stays or moves,
	// but never to a spot worse than staying.
	if dest[0] != 1 || dest[1] != 0 {
		t.Fatalf("expected 0↔1 swap, got %v", dest)
	}
}

func TestOptimalAssignmentMigratorRespectsInactive(t *testing.T) {
	s := &State{
		Locations:   []int{0, 1, 2},
		Active:      []bool{true, true, false},
		D:           [][]float64{{0, 1, 5}, {1, 0, 5}, {5, 5, 0}},
		CostSeconds: [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}},
	}
	dest := (&OptimalAssignmentMigrator{}).Plan(s)
	for mi, d := range dest {
		if d != s.Locations[mi] && d == 2 {
			t.Fatal("routed a model to an inactive client")
		}
	}
}

func TestOptimalBeatsOrMatchesGreedyRun(t *testing.T) {
	cfg := Config{MaxEpochs: 20, AggEvery: 10, LR: 0.08}
	greedy := runScheme2(t, FedMigr, cfg, 6, 3, false, &GreedyEMDMigrator{CostWeight: 0.05}, 4)
	optimal := runScheme2(t, FedMigr, cfg, 6, 3, false, &OptimalAssignmentMigrator{CostWeight: 0.05}, 4)
	if optimal.BestAcc() < greedy.BestAcc()-0.15 {
		t.Fatalf("optimal assignment %v far below greedy %v", optimal.BestAcc(), greedy.BestAcc())
	}
}
