package fleet

import (
	"crypto/sha256"
	"testing"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// buildJob assembles one tenant: its own synthetic partition over the
// shared k-client fleet and a lazily hydrated trainer on the shared pool.
func buildJob(t testing.TB, k int, seed int64, pool *sched.Pool, topo *edgenet.Topology, cost *edgenet.CostModel) (*core.Trainer, []int) {
	t.Helper()
	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: 4, Channels: 1, Height: 4, Width: 4,
		PerClass: 12, TestPer: 4, Noise: 0.5, Seed: seed,
	})
	parts := data.PartitionIID(train, k, tensor.NewRNG(seed))
	clients := make([]*core.Client, k)
	samples := make([]int, k)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: parts[i]}
		samples[i] = parts[i].Len()
	}
	factory := func() *nn.Sequential {
		g := tensor.NewRNG(seed + 11)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, 16, 8), nn.NewReLU(),
			nn.NewDense(g, 8, 4),
		)
	}
	tr, err := core.NewTrainer(core.Config{
		Scheme: core.FedAvg, Tau: 1, AggEvery: 1, BatchSize: 8, LR: 0.05,
		Seed: seed, LazyHydration: true, Pool: pool,
	}, clients, topo, cost, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, samples
}

func newFleet(t testing.TB, cfg Config, k int, plan *faults.Plan, pool *sched.Pool) (*Manager, *edgenet.Topology, *edgenet.CostModel) {
	t.Helper()
	topo := edgenet.EvenTopology(k, 2)
	cost := edgenet.DefaultCostModel()
	m, err := New(cfg, topo, cost, plan, pool)
	if err != nil {
		t.Fatal(err)
	}
	return m, topo, cost
}

func TestAdmissionControl(t *testing.T) {
	m, topo, cost := newFleet(t, Config{MaxHydrated: 6, Seed: 1}, 12, nil, nil)

	trA, sA := buildJob(t, 12, 1, nil, topo, cost)
	a, err := m.Submit(JobConfig{Name: "a", Demand: 4, Rounds: 1, Samples: sA}, trA)
	if err != nil || a.State != Running {
		t.Fatalf("job a: %v state %v", err, a.State)
	}
	// Demand alone over budget: rejected with an error.
	trR, sR := buildJob(t, 12, 2, nil, topo, cost)
	r, err := m.Submit(JobConfig{Name: "huge", Demand: 7, Rounds: 1, Samples: sR}, trR)
	if err == nil || r.State != Rejected {
		t.Fatalf("over-budget job admitted: %v state %v", err, r.State)
	}
	// Fits the budget, but not while a runs: queued.
	trB, sB := buildJob(t, 12, 3, nil, topo, cost)
	b, err := m.Submit(JobConfig{Name: "b", Demand: 4, Rounds: 1, Samples: sB}, trB)
	if err != nil || b.State != Queued {
		t.Fatalf("job b: %v state %v", err, b.State)
	}
	// Round 1 serves a (b still queued: promote runs before a finishes).
	m.RunRound()
	if a.State != Done || a.RoundsDone != 1 {
		t.Fatalf("job a after round 1: state %v rounds %d", a.State, a.RoundsDone)
	}
	// Round 2 promotes and serves b.
	m.RunRound()
	if b.State != Done || b.RoundsDone != 1 {
		t.Fatalf("job b after round 2: state %v rounds %d", b.State, b.RoundsDone)
	}
	if !m.Idle() {
		t.Fatal("fleet should be idle")
	}
}

func TestSubmitValidation(t *testing.T) {
	m, topo, cost := newFleet(t, Config{Seed: 1}, 4, nil, nil)
	tr, s := buildJob(t, 4, 1, nil, topo, cost)
	if _, err := m.Submit(JobConfig{Demand: 1, Rounds: 1}, tr); err == nil {
		t.Fatal("nameless job admitted")
	}
	if _, err := m.Submit(JobConfig{Name: "x", Demand: 0, Rounds: 1}, tr); err == nil {
		t.Fatal("zero-demand job admitted")
	}
	if _, err := m.Submit(JobConfig{Name: "x", Demand: 5, Rounds: 1}, tr); err == nil {
		t.Fatal("demand beyond fleet size admitted")
	}
	if _, err := m.Submit(JobConfig{Name: "x", Demand: 1, Rounds: 0}, tr); err == nil {
		t.Fatal("zero-round job admitted")
	}
	if _, err := m.Submit(JobConfig{Name: "x", Demand: 1, Rounds: 1, Samples: []int{1}}, tr); err == nil {
		t.Fatal("wrong-length samples admitted")
	}
	if _, err := m.Submit(JobConfig{Name: "ok", Demand: 1, Rounds: 1, Samples: s}, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(JobConfig{Name: "ok", Demand: 1, Rounds: 1}, tr); err == nil {
		t.Fatal("duplicate name admitted")
	}
}

func TestFairShareWeights(t *testing.T) {
	m, topo, cost := newFleet(t, Config{Seed: 5}, 8, nil, nil)
	trFull, sFull := buildJob(t, 8, 1, nil, topo, cost)
	full, err := m.Submit(JobConfig{Name: "full", Demand: 2, Rounds: 4, Samples: sFull}, trFull)
	if err != nil {
		t.Fatal(err)
	}
	trHalf, sHalf := buildJob(t, 8, 2, nil, topo, cost)
	half, err := m.Submit(JobConfig{Name: "half", Demand: 2, Rounds: 4, Weight: 0.5, Samples: sHalf}, trHalf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.RunRound()
	}
	if full.RoundsDone != 4 {
		t.Fatalf("weight-1 job ran %d/4 rounds", full.RoundsDone)
	}
	if half.RoundsDone != 2 {
		t.Fatalf("weight-0.5 job ran %d rounds in 4, want 2", half.RoundsDone)
	}
}

// TestAllocateDisjointSorted checks the allocator's two structural
// invariants directly: no client serves two jobs in one round, and each
// job's client list is ascending (the aggregation slot order). It runs a
// small fleet and one of 300 clients, both on the one exact solver.
func TestAllocateDisjointSorted(t *testing.T) {
	for _, k := range []int{10, 300} {
		m, topo, cost := newFleet(t, Config{Seed: 9}, k, nil, nil)
		trA, sA := buildJob(t, k, 1, nil, topo, cost)
		a, _ := m.Submit(JobConfig{Name: "a", Demand: 4, Rounds: 1, Samples: sA}, trA)
		trB, sB := buildJob(t, k, 2, nil, topo, cost)
		b, _ := m.Submit(JobConfig{Name: "b", Demand: 5, Rounds: 1, Samples: sB}, trB)
		active := make([]bool, k)
		for i := range active {
			active[i] = true
		}
		got := m.allocate([]*Job{a, b}, []int{4, 5}, active)
		seen := map[int]bool{}
		total := 0
		for _, j := range []*Job{a, b} {
			list := got[j]
			want := j.Cfg.Demand
			if len(list) != want {
				t.Fatalf("k=%d: job %s got %d clients, want %d", k, j.Cfg.Name, len(list), want)
			}
			for i, c := range list {
				if seen[c] {
					t.Fatalf("k=%d: client %d allocated twice", k, c)
				}
				seen[c] = true
				if i > 0 && list[i-1] >= c {
					t.Fatalf("k=%d: job %s clients not ascending: %v", k, j.Cfg.Name, list)
				}
				total++
			}
		}
		if total != 9 {
			t.Fatalf("k=%d: allocated %d clients, want 9", k, total)
		}
	}
}

// TestFaultsReallocation drives a plan that takes half the fleet down for
// a window: jobs keep training on survivors (scaled takes), nobody loses a
// round, and the downed clients return afterwards.
func TestFaultsReallocation(t *testing.T) {
	plan := faults.NewPlan(3)
	for c := 0; c < 4; c++ {
		plan.Outage(c, 1, 3) // fleet rounds 1 and 2
	}
	m, topo, cost := newFleet(t, Config{Seed: 3}, 8, plan, nil)
	trA, sA := buildJob(t, 8, 1, nil, topo, cost)
	a, err := m.Submit(JobConfig{Name: "a", Demand: 3, Rounds: 4, Samples: sA}, trA)
	if err != nil {
		t.Fatal(err)
	}
	trB, sB := buildJob(t, 8, 2, nil, topo, cost)
	b, err := m.Submit(JobConfig{Name: "b", Demand: 3, Rounds: 4, Samples: sB}, trB)
	if err != nil {
		t.Fatal(err)
	}
	rounds := m.Run(10)
	if a.RoundsDone != 4 || b.RoundsDone != 4 {
		t.Fatalf("rounds done a=%d b=%d, want 4 each", a.RoundsDone, b.RoundsDone)
	}
	if rounds != 4 {
		t.Fatalf("fleet took %d rounds, want 4 (outage must not cost anyone a round: 4 survivors cover 2×3 demand)", rounds)
	}
	// During the outage rounds every allocation must avoid clients 0–3:
	// check via each job's history that all rounds trained a full cohort.
	for _, j := range []*Job{a, b} {
		for i, rm := range j.History {
			if rm.TrainLoss <= 0 {
				t.Fatalf("job %s round %d trained nothing (loss %v)", j.Cfg.Name, i, rm.TrainLoss)
			}
		}
	}
}

// TestLateJoinEntersCandidateSet drives a plan where half the fleet joins
// late: the allocator's candidate set starts at the founding clients only
// and admits each joiner at its scheduled round, visible through the
// fleet_active_clients gauge, while a job whose demand only the grown
// fleet can cover still trains every round on whoever is present.
func TestLateJoinEntersCandidateSet(t *testing.T) {
	plan := faults.NewPlan(6).JoinAt(2, 1).JoinAt(3, 2)
	m, topo, cost := newFleet(t, Config{Seed: 6}, 4, plan, nil)
	tel := telemetry.New()
	m.SetTelemetry(tel)
	tr, s := buildJob(t, 4, 1, nil, topo, cost)
	j, err := m.Submit(JobConfig{Name: "a", Demand: 4, Rounds: 3, Samples: s}, tr)
	if err != nil {
		t.Fatal(err)
	}
	gauge := tel.Gauge("fleet_active_clients")
	for round, want := range []float64{2, 3, 4} {
		m.RunRound()
		if got := gauge.Value(); got != want {
			t.Fatalf("round %d: %v active clients, want %v", round, got, want)
		}
	}
	// Scarcity scaling served the job with 2, then 3, then all 4 clients —
	// no round lost waiting for the cohort to fill up.
	if j.State != Done || j.RoundsDone != 3 {
		t.Fatalf("job after churn: state %v rounds %d, want done/3", j.State, j.RoundsDone)
	}
	for i, rm := range j.History {
		if rm.TrainLoss <= 0 {
			t.Fatalf("round %d trained nothing (loss %v)", i, rm.TrainLoss)
		}
	}
}

// TestStarvationRetries verifies a job that cannot be served keeps its
// round budget: with every client down, rounds pass, nothing trains, and
// when the fleet recovers the job still completes all its rounds.
func TestStarvationRetries(t *testing.T) {
	plan := faults.NewPlan(4)
	for c := 0; c < 4; c++ {
		plan.Outage(c, 0, 2)
	}
	m, topo, cost := newFleet(t, Config{Seed: 4}, 4, plan, nil)
	tr, s := buildJob(t, 4, 1, nil, topo, cost)
	j, err := m.Submit(JobConfig{Name: "a", Demand: 2, Rounds: 2, Samples: s}, tr)
	if err != nil {
		t.Fatal(err)
	}
	m.RunRound()
	m.RunRound()
	if j.RoundsDone != 0 {
		t.Fatalf("starved job advanced to %d rounds", j.RoundsDone)
	}
	m.Run(10)
	if j.State != Done || j.RoundsDone != 2 {
		t.Fatalf("job after recovery: state %v rounds %d", j.State, j.RoundsDone)
	}
}

// fleetDigest runs a 2-job fleet at the given worker count and returns a
// digest over both jobs' global models.
func fleetDigest(t *testing.T, workers int) [32]byte {
	t.Helper()
	pool := sched.New(workers)
	defer pool.Close()
	m, topo, cost := newFleet(t, Config{Seed: 7}, 8, nil, pool)
	trA, sA := buildJob(t, 8, 1, pool, topo, cost)
	if _, err := m.Submit(JobConfig{Name: "a", Demand: 3, Rounds: 3, Samples: sA}, trA); err != nil {
		t.Fatal(err)
	}
	trB, sB := buildJob(t, 8, 2, pool, topo, cost)
	if _, err := m.Submit(JobConfig{Name: "b", Demand: 4, Rounds: 3, Samples: sB}, trB); err != nil {
		t.Fatal(err)
	}
	m.Run(10)
	h := sha256.New()
	for _, tr := range []*core.Trainer{trA, trB} {
		bs, err := tr.GlobalModel().MarshalParams()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(bs)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestFleetWorkerInvariance is the package-local determinism smoke test
// (the full 3-job 1k-client version lives at the repo root): per-job
// models must be bit-identical between a serial and a parallel fleet.
func TestFleetWorkerInvariance(t *testing.T) {
	if fleetDigest(t, 1) != fleetDigest(t, 4) {
		t.Fatal("fleet run diverges between workers=1 and workers=4")
	}
}

func TestRestore(t *testing.T) {
	m, topo, cost := newFleet(t, Config{Seed: 8}, 4, nil, nil)
	tr, s := buildJob(t, 4, 1, nil, topo, cost)
	j, err := m.Submit(JobConfig{Name: "a", Demand: 2, Rounds: 3, Samples: s}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(2, map[string]int{"a": 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(2, 2); err != nil {
		t.Fatal(err)
	}
	if m.Round() != 2 || j.RoundsDone != 2 {
		t.Fatalf("restore: round %d jobRounds %d", m.Round(), j.RoundsDone)
	}
	m.Run(10)
	if j.State != Done || j.RoundsDone != 3 {
		t.Fatalf("after resume: state %v rounds %d", j.State, j.RoundsDone)
	}
	if err := m.Restore(0, nil); err == nil {
		t.Fatal("Restore after rounds ran must error")
	}
	m2, _, _ := newFleet(t, Config{Seed: 8}, 4, nil, nil)
	if err := m2.Restore(1, map[string]int{"ghost": 1}); err == nil {
		t.Fatal("Restore with unknown job must error")
	}
}
