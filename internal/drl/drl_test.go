package drl

import (
	"math"
	"testing"
	"testing/quick"

	"fedmigr/internal/core"
	"fedmigr/internal/tensor"
)

func TestPERBufferAddAndLen(t *testing.T) {
	b := NewPERBuffer(3, 0.6, 0.6, 1)
	for i := 0; i < 5; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("ring buffer len %d, want 3", b.Len())
	}
}

func TestPERBufferRingOverwrite(t *testing.T) {
	b := NewPERBuffer(2, 0.6, 0.6, 1)
	b.Add(Transition{Reward: 1})
	b.Add(Transition{Reward: 2})
	b.Add(Transition{Reward: 3}) // overwrites slot 0
	rewards := map[float64]bool{}
	for _, it := range b.items {
		rewards[it.Reward] = true
	}
	if !rewards[3] || !rewards[2] || rewards[1] {
		t.Fatalf("ring contents %v", rewards)
	}
}

func TestPriorityEquation(t *testing.T) {
	b := NewPERBuffer(4, 0.7, 0.6, 1)
	got := b.Priority(-2, 4)
	want := 0.7*2 + 0.3*4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("priority %v want %v", got, want)
	}
	if b.Priority(0, 0) <= 0 {
		t.Fatal("zero priority must be floored")
	}
}

// Property (Eq. 26): sampling probabilities form a distribution, and
// higher priority ⇒ higher probability when ξ > 0.
func TestSampleProbabilities(t *testing.T) {
	b := NewPERBuffer(10, 0.6, 0.8, 2)
	for i := 0; i < 10; i++ {
		b.Add(Transition{})
		b.UpdatePriority(i, float64(i+1))
	}
	ps := b.SampleProbabilities()
	sum := 0.0
	for i, p := range ps {
		sum += p
		if i > 0 && ps[i] < ps[i-1] {
			t.Fatal("probability must be monotone in priority")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestXiZeroIsUniform(t *testing.T) {
	b := NewPERBuffer(4, 0.6, 0, 3)
	for i := 0; i < 4; i++ {
		b.Add(Transition{})
		b.UpdatePriority(i, float64(i+1)*10)
	}
	for _, p := range b.SampleProbabilities() {
		if math.Abs(p-0.25) > 1e-9 {
			t.Fatalf("ξ=0 should sample uniformly, got %v", b.SampleProbabilities())
		}
	}
}

func TestSampleBiasTowardHighPriority(t *testing.T) {
	b := NewPERBuffer(2, 0.6, 1, 4)
	b.Add(Transition{Reward: 0}) // low priority
	b.Add(Transition{Reward: 1}) // high priority
	b.UpdatePriority(0, 0.001)
	b.UpdatePriority(1, 10)
	hi := 0
	for i := 0; i < 500; i++ {
		_, ts, _ := sampleN(b, 1)
		if ts[0].Reward == 1 {
			hi++
		}
	}
	if hi < 450 {
		t.Fatalf("high-priority sampled only %d/500", hi)
	}
}

func TestISWeightsNormalized(t *testing.T) {
	b := NewPERBuffer(8, 0.6, 0.7, 5)
	for i := 0; i < 8; i++ {
		b.Add(Transition{})
		b.UpdatePriority(i, float64(i+1))
	}
	_, _, isw := sampleN(b, 16)
	maxW := 0.0
	for _, w := range isw {
		if w <= 0 || w > 1+1e-12 {
			t.Fatalf("IS weight %v outside (0,1]", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	if math.Abs(maxW-1) > 1e-9 {
		t.Fatalf("max IS weight %v, want 1 after normalization", maxW)
	}
}

func TestSampleEmptyBuffer(t *testing.T) {
	b := NewPERBuffer(4, 0.6, 0.6, 6)
	idx, ts, isw := make([]int, 4), make([]Transition, 4), make([]float64, 4)
	idx[0], isw[0] = 7, 0.5
	if b.Sample(idx, ts, isw) || idx[0] != 7 || isw[0] != 0.5 {
		t.Fatal("an empty buffer must report false and leave the slices alone")
	}
}

// sampleN draws n transitions from b into fresh slices (nils when b is
// empty).
func sampleN(b *PERBuffer, n int) ([]int, []Transition, []float64) {
	idx, ts, isw := make([]int, n), make([]Transition, n), make([]float64, n)
	if !b.Sample(idx, ts, isw) {
		return nil, nil, nil
	}
	return idx, ts, isw
}

func TestUpdatePriorityPanicsOutOfRange(t *testing.T) {
	b := NewPERBuffer(4, 0.6, 0.6, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.UpdatePriority(0, 1)
}

func TestDDPGActIsDistribution(t *testing.T) {
	a := NewDDPG(DDPGConfig{StateDim: 5, ActionDim: 4, Seed: 1})
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		s := make([]float64, 5)
		for i := range s {
			s[i] = g.NormFloat64()
		}
		act := a.Act(s)
		sum := 0.0
		for _, p := range act {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDDPGTrainStepRunsAndUpdatesTargets(t *testing.T) {
	a := NewDDPG(DDPGConfig{StateDim: 4, ActionDim: 3, BatchSize: 4, Seed: 2})
	g := tensor.NewRNG(3)
	for i := 0; i < 20; i++ {
		s := []float64{g.NormFloat64(), g.NormFloat64(), g.NormFloat64(), g.NormFloat64()}
		act := []float64{1, 0, 0}
		a.Observe(Transition{State: s, Action: act, Reward: g.NormFloat64(), NextState: s})
	}
	before := a.TargetDistance()
	td := a.TrainStep()
	if td <= 0 {
		t.Fatalf("expected positive mean |TD| on an untrained critic, got %v", td)
	}
	if a.Steps() != 1 {
		t.Fatalf("steps %d", a.Steps())
	}
	_ = before
	// Target must trail the online net but move.
	if a.TargetDistance() == 0 {
		t.Fatal("target should not instantly equal online net")
	}
}

func TestDDPGLearnsBanditPreference(t *testing.T) {
	// One-state bandit: action 0 gives reward 1, action 1 gives reward -1.
	// After training, the actor should prefer action 0.
	a := NewDDPG(DDPGConfig{StateDim: 2, ActionDim: 2, BatchSize: 8, Seed: 4, ActorLR: 5e-3, CriticLR: 1e-2})
	s := []float64{1, 0}
	for i := 0; i < 40; i++ {
		a.Observe(Transition{State: s, Action: []float64{1, 0}, Reward: 1, NextState: s, Done: true})
		a.Observe(Transition{State: s, Action: []float64{0, 1}, Reward: -1, NextState: s, Done: true})
	}
	for i := 0; i < 300; i++ {
		a.TrainStep()
	}
	act := a.Act(s)
	if act[0] <= act[1] {
		t.Fatalf("actor did not learn preference: %v", act)
	}
	// Critic should also rank the actions correctly.
	if a.Q(s, []float64{1, 0}) <= a.Q(s, []float64{0, 1}) {
		t.Fatalf("critic ranks actions wrongly: %v vs %v",
			a.Q(s, []float64{1, 0}), a.Q(s, []float64{0, 1}))
	}
}

func TestDDPGObservePanicsOnBadDims(t *testing.T) {
	a := NewDDPG(DDPGConfig{StateDim: 2, ActionDim: 2, Seed: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Observe(Transition{State: []float64{1}, Action: []float64{1, 0}})
}

func makeState(k int) *core.State {
	s := &core.State{
		Epoch:     3,
		Loss:      1.2,
		PrevLoss:  1.5,
		Locations: make([]int, k),
		Active:    make([]bool, k),
	}
	s.D = make([][]float64, k)
	s.CostSeconds = make([][]float64, k)
	for i := 0; i < k; i++ {
		s.Locations[i] = i
		s.Active[i] = true
		s.D[i] = make([]float64, k)
		s.CostSeconds[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			if i != j {
				s.D[i][j] = 1.0
				s.CostSeconds[i][j] = 0.1
			}
		}
	}
	return s
}

func TestMigratorPlanShape(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 4, Seed: 1})
	s := makeState(4)
	dest := m.Plan(s)
	if len(dest) != 4 {
		t.Fatalf("plan length %d", len(dest))
	}
	moved := 0
	for i, d := range dest {
		if d != s.Locations[i] {
			moved++
		}
		if d < 0 || d >= 4 {
			t.Fatalf("invalid destination %d", d)
		}
	}
	if moved > 1 {
		t.Fatalf("reduced action space allows one mover per event, moved %d", moved)
	}
}

func TestMigratorRoundRobinMover(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 3, Seed: 2})
	s := makeState(3)
	movers := map[int]bool{}
	for i := 0; i < 3; i++ {
		m.Plan(s)
		movers[m.lastMover] = true
	}
	if len(movers) != 3 {
		t.Fatalf("round-robin covered %d movers, want 3", len(movers))
	}
}

func TestMigratorAvoidsInactive(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 4, Seed: 3})
	s := makeState(4)
	s.Active[2] = false
	for i := 0; i < 40; i++ {
		dest := m.Plan(s)
		for mi, d := range dest {
			if d != s.Locations[mi] && d == 2 {
				t.Fatal("planned migration to inactive client")
			}
		}
	}
}

func TestMigratorAllInactive(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 3, Seed: 4})
	s := makeState(3)
	for i := range s.Active {
		s.Active[i] = false
	}
	dest := m.Plan(s)
	for i, d := range dest {
		if d != s.Locations[i] {
			t.Fatal("nothing should move when all clients are inactive")
		}
	}
}

func TestRewardImprovementBeatsRegression(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 3, Seed: 5})
	better := makeState(3)
	better.PrevLoss, better.Loss = 2.0, 1.0 // loss halved
	worse := makeState(3)
	worse.PrevLoss, worse.Loss = 1.0, 2.0 // loss doubled
	rb := m.Reward(better, false, false)
	rw := m.Reward(worse, false, false)
	if rb <= rw {
		t.Fatalf("improvement reward %v must exceed regression reward %v", rb, rw)
	}
}

func TestRewardResourcePenalty(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 3, Seed: 6})
	cheap := makeState(3)
	cheap.ComputeBudget, cheap.BytesBudget = 100, 1000
	cheap.EpochComputeSeconds, cheap.EpochBytes = 0, 0
	costly := makeState(3)
	costly.ComputeBudget, costly.BytesBudget = 100, 1000
	costly.EpochComputeSeconds, costly.EpochBytes = 50, 900
	if m.Reward(cheap, false, false) <= m.Reward(costly, false, false) {
		t.Fatal("resource consumption must reduce reward")
	}
}

func TestRewardTerminal(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 3, TerminalC: 2, Seed: 7})
	s := makeState(3)
	base := m.Reward(s, false, false)
	win := m.Reward(s, true, true)
	lose := m.Reward(s, true, false)
	if math.Abs(win-(base+2)) > 1e-9 || math.Abs(lose-(base-2)) > 1e-9 {
		t.Fatalf("terminal adjustment wrong: base=%v win=%v lose=%v", base, win, lose)
	}
}

func TestFeedbackTrainsAndDecaysRho(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 3, Seed: 8, DDPG: DDPGConfig{BatchSize: 2}})
	s := makeState(3)
	rho0 := m.Rho()
	for i := 0; i < 5; i++ {
		action := m.Plan(s)
		m.Feedback(s, action, s, false, false)
	}
	if m.Rho() >= rho0 {
		t.Fatalf("rho should decay: %v → %v", rho0, m.Rho())
	}
	if m.Agent.Buffer.Len() == 0 {
		t.Fatal("feedback did not store transitions")
	}
	if m.Agent.Steps() == 0 {
		t.Fatal("feedback did not train")
	}
	if m.MeanReward() == 0 {
		t.Fatal("mean reward not tracked")
	}
}

func TestFrozenMigratorDoesNotLearn(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 3, Seed: 9})
	m.Frozen = true
	s := makeState(3)
	action := m.Plan(s)
	m.Feedback(s, action, s, false, false)
	if m.Agent.Buffer.Len() != 0 || m.Agent.Steps() != 0 {
		t.Fatal("frozen migrator must not learn")
	}
	// Frozen plans are deterministic: repeated planning from the same
	// mover position gives the same destination.
	m2 := NewMigrator(MigratorConfig{K: 3, Seed: 9})
	m2.Frozen = true
	d1 := m2.Plan(s)
	m3 := NewMigrator(MigratorConfig{K: 3, Seed: 9})
	m3.Frozen = true
	d2 := m3.Plan(s)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("frozen plans must be deterministic")
		}
	}
}

func TestFeaturesShapeAndRanges(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 5, Seed: 10})
	s := makeState(5)
	s.ComputeBudget, s.ComputeUsed = 100, 40
	f := m.Features(s, 2)
	if len(f) != StateDim(5) {
		t.Fatalf("feature dim %d want %d", len(f), StateDim(5))
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %v", i, v)
		}
	}
	// Mover one-hot occupies f[7:12].
	for j := 0; j < 5; j++ {
		want := 0.0
		if j == 2 {
			want = 1
		}
		if f[7+j] != want {
			t.Fatalf("one-hot wrong at %d", j)
		}
	}
}

func TestFeaturesHandleInfiniteLoss(t *testing.T) {
	m := NewMigrator(MigratorConfig{K: 3, Seed: 11})
	s := makeState(3)
	s.Loss = math.Inf(1)
	s.PrevLoss = math.Inf(1)
	f := m.Features(s, 0)
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %v under Inf loss", i, v)
		}
	}
}
