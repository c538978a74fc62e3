package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"fedmigr/internal/faults"
	"fedmigr/internal/tensor"
)

// TestCohortSamplerQuorumTopUp pins the sampler's contract: the draw is a
// pure function of (seed, round, active mask), sorted ascending, and when
// fault churn leaves the raw draw short of the quorum, inactive picks are
// swapped for active spares until min is met.
func TestCohortSamplerQuorumTopUp(t *testing.T) {
	s := &cohortSampler{k: 10, size: 4, min: 3, seed: 77}
	allUp := make([]bool, 10)
	for i := range allUp {
		allUp[i] = true
	}
	a := s.sample(2, allUp)
	b := s.sample(2, allUp)
	if len(a) != 4 || !sort.IntsAreSorted(a) {
		t.Fatalf("cohort %v: want 4 sorted members", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed, round, mask) drew different cohorts: %v vs %v", a, b)
		}
	}

	// Only clients 1, 5 and 9 survive: every draw must still contain all
	// three (min = 3), whatever the raw permutation picked.
	churn := make([]bool, 10)
	churn[1], churn[5], churn[9] = true, true, true
	for round := 0; round < 8; round++ {
		c := s.sample(round, churn)
		act := 0
		for _, m := range c {
			if churn[m] {
				act++
			}
		}
		if act < 3 {
			t.Fatalf("round %d: cohort %v has %d active members, quorum is 3", round, c, act)
		}
	}
}

// TestCohortQuorumUnderCrashes is the S3 core-side chaos case: a sampled
// cohort keeps training through crashes, topping draws up to the quorum,
// while the streaming hierarchical reduction folds whatever participants
// remain. Two identical runs must also agree bit-for-bit — fault churn
// must not leak nondeterminism into the cohort stream.
func TestCohortQuorumUnderCrashes(t *testing.T) {
	run := func() *Result {
		clients, topo, test, factory := buildSetup(t, 8, 2, false, 31)
		plan := faults.NewPlan(31).CrashAt(2, 2).CrashAt(6, 3).Outage(0, 1, 4)
		cfg := Config{
			Scheme: FedAvg, MaxEpochs: 8, AggEvery: 1, Seed: 31,
			CohortSize: 3, MinCohort: 2, Aggregators: 2, Faults: plan,
		}
		tr, err := NewTrainer(cfg, clients, topo, nil, test, factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := tr.Run()
		if got := tr.MaxHydrated(); got > 3 {
			t.Fatalf("peak hydrated %d replicas, cohort is 3", got)
		}
		return res
	}
	a, b := run(), run()
	if a.Epochs != 8 {
		t.Fatalf("faulty cohort run stopped at epoch %d", a.Epochs)
	}
	if a.Rounds < 6 {
		t.Fatalf("only %d rounds aggregated in 8 epochs", a.Rounds)
	}
	if math.IsNaN(a.FinalLoss) {
		t.Fatal("cohort run under crashes produced NaN loss")
	}
	if a.FinalLoss != b.FinalLoss || a.FinalAcc != b.FinalAcc || a.Rounds != b.Rounds {
		t.Fatalf("identical cohort+fault runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.History {
		if a.History[i].TrainLoss != b.History[i].TrainLoss {
			t.Fatalf("round %d losses diverge: %v vs %v", i, a.History[i].TrainLoss, b.History[i].TrainLoss)
		}
	}
}

// referenceCohortSample is the sampler as it was before it stopped building
// the permutation, kept verbatim as the reference: it draws all of Perm(k)
// and takes its prefix, and tops the quorum up from the rest.
func referenceCohortSample(s *cohortSampler, round int, active []bool) []int {
	size := s.size
	if size > s.k {
		size = s.k
	}
	g := tensor.NewRNG(roundSeed(s.seed, round))
	perm := g.Perm(s.k)
	cohort := append([]int(nil), perm[:size]...)
	act := 0
	for _, c := range cohort {
		if active[c] {
			act++
		}
	}
	if act < s.min {
		spares := perm[size:]
		si := 0
		for i := range cohort {
			if act >= s.min {
				break
			}
			if active[cohort[i]] {
				continue
			}
			for si < len(spares) && !active[spares[si]] {
				si++
			}
			if si >= len(spares) {
				break // not enough active clients anywhere
			}
			cohort[i] = spares[si]
			si++
			act++
		}
	}
	sort.Ints(cohort)
	return cohort
}

// TestCohortSampleMatchesReference holds the prefix-only sampler to the
// full-permutation reference: the same cohort for every seed, population,
// cohort size and round, and on the quorum-spare path with no deficit, a
// deficit of one, and too few active clients anywhere.
func TestCohortSampleMatchesReference(t *testing.T) {
	check := func(s *cohortSampler, round int, active []bool, what string) {
		t.Helper()
		got, want := s.sample(round, active), referenceCohortSample(s, round, active)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: k=%d size=%d min=%d seed=%d round=%d: cohort %v, reference %v",
				what, s.k, s.size, s.min, s.seed, round, got, want)
		}
	}
	for _, k := range []int{1, 2, 7, 64, 1000, 100000} {
		all := make([]bool, k)
		for i := range all {
			all[i] = true
		}
		for _, seed := range []int64{1, 77, -9} {
			for _, size := range []int{1, 2, 7, 64, k + 1} {
				for _, round := range []int{0, 5} {
					s := &cohortSampler{k: k, size: size, seed: seed}
					check(s, round, all, "all active")

					// No deficit: every draw is active, quorum = size.
					s.min = min(size, k)
					check(s, round, all, "quorum met")

					// A deficit of one: exactly one drawn client is down.
					raw := referenceCohortSample(&cohortSampler{k: k, size: size, seed: seed}, round, all)
					oneDown := slices.Clone(all)
					oneDown[raw[len(raw)/2]] = false
					check(s, round, oneDown, "deficit of one")

					// Too few active clients anywhere: only the last two
					// clients are up, short of a quorum of three.
					few := make([]bool, k)
					for c := max(0, k-2); c < k; c++ {
						few[c] = true
					}
					s.min = 3
					check(s, round, few, "too few active")
				}
			}
		}
	}
}
