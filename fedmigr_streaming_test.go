package fedmigr

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"fedmigr/internal/edgenet"
)

// streamOpts is the shared shape of the parity runs: 16 clients so a
// fan-out of 16 degenerates to one client per simulated aggregator, the
// FedMigr scheme with the greedy migrator so models change hosts between
// rounds (the case that historically broke sibling alignment), and two
// aggregation rounds.
func streamOpts() Options {
	return Options{
		Scheme:    SchemeFedMigr,
		Migrator:  MigratorGreedyEMD,
		Model:     ModelMLP,
		Clients:   16,
		LANs:      4,
		PerClass:  8,
		Epochs:    4,
		AggEvery:  2,
		BatchSize: 8,
		EvalEvery: 2,
		Seed:      7,
	}
}

func runDigest(t *testing.T, o Options) [32]byte {
	t.Helper()
	sim, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	b, err := sim.Trainer.GlobalModel().MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// TestStreamingAggregationParity is the streaming path's end-to-end
// proof: the global parameters are bit-identical for every worker count
// and edge-aggregator fan-out. The reduction tree's shape is fixed by the
// slot set alone, so WHERE the partial sums are computed (flat, or grouped
// onto 1/4/16 simulated aggregators) must never leak into the float64
// result. Each run gets a fresh jitter-free cost model: with jitter, a
// fan-out's extra transfer accounting shifts the migrator's cost draws
// (Options.Aggregators), and this test is about the sum, not that stream.
// Ten epochs put several migration events after an aggregation.
func TestStreamingAggregationParity(t *testing.T) {
	opts := func(workers, fanout int) Options {
		o := streamOpts()
		o.Epochs = 10
		o.Cost = edgenet.DefaultCostModel()
		o.Workers = workers
		o.Aggregators = fanout
		return o
	}
	want := runDigest(t, opts(1, 0))

	for _, workers := range []int{1, 8} {
		for _, fanout := range []int{1, 4, 16} {
			if got := runDigest(t, opts(workers, fanout)); got != want {
				t.Fatalf("workers=%d aggregators=%d: model diverges from the workers=1 flat run", workers, fanout)
			}
		}
	}
}

// TestStreamingCohortParity extends the parity claim to cohort mode:
// sampling 8 of 16 clients per round with lazy hydration must pick the
// same cohorts (seeded, round-derived) and fold their uploads to the same
// bits whether the reduction is flat and serial or streamed through a
// fan-out on 8 workers.
func TestStreamingCohortParity(t *testing.T) {
	cohortOpts := func() Options {
		o := streamOpts()
		o.Scheme = SchemeFedAvg
		o.CohortSize = 8
		return o
	}
	base := cohortOpts()
	base.Workers = 1
	want := runDigest(t, base)

	for _, fanout := range []int{1, 4, 16} {
		o := cohortOpts()
		o.Workers = 8
		o.Aggregators = fanout
		if got := runDigest(t, o); got != want {
			t.Fatalf("aggregators=%d: cohort model diverges from the workers=1 flat run", fanout)
		}
	}
}

// Test100kClientStreamingSmoke runs a 100 000-client federated round for
// real — no mocked trainer — and asserts the three O(1)-memory claims
// hold together: replicated partitioning keeps dataset memory at the pool
// size, cohort sampling keeps at most CohortSize replicas hydrated, and
// the streaming fold never materializes more than the reduction frontier.
// The post-GC heap ceiling is the regression tripwire: materializing every
// leaf at this scale would need ~100k × model-size of scratch and blow
// straight through it.
func Test100kClientStreamingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-client smoke skipped in -short mode")
	}
	const (
		k      = 100_000
		cohort = 64
	)
	sim, err := New(Options{
		Scheme:        SchemeFedAvg,
		Model:         ModelMLP,
		Partition:     PartitionReplicate,
		ReplicaShards: 64,
		Clients:       k,
		LANs:          16,
		PerClass:      32,
		Epochs:        3,
		AggEvery:      1,
		BatchSize:     8,
		EvalEvery:     2,
		CohortSize:    cohort,
		Aggregators:   16,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Rounds != 3 {
		t.Fatalf("smoke run finished %d rounds, want 3", res.Rounds)
	}
	if got := sim.Trainer.MaxHydrated(); got != cohort {
		t.Fatalf("peak hydrated replicas = %d, want exactly the cohort size %d", got, cohort)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const ceiling = 256 << 20
	if ms.HeapAlloc > ceiling {
		t.Fatalf("post-run heap %.1f MB exceeds the %d MB ceiling: memory is not independent of the client count",
			float64(ms.HeapAlloc)/(1<<20), ceiling>>20)
	}
	t.Logf("100k clients: heap=%.1fMB max_hydrated=%d final_acc=%.3f",
		float64(ms.HeapAlloc)/(1<<20), sim.Trainer.MaxHydrated(), res.FinalAcc)
}

// TestCohortRoundAllocsIndependentOfK pins the per-round cost contract of
// cohort mode: a round allocates O(cohort), not O(K). The same cohort of
// 16 trains at 2 000 and at 100 000 clients, and after two warm-up rounds
// the bytes five rounds allocate may grow with K by at most 10 % + 16 KB.
// The cohort draw's K Intn calls stay, but they allocate nothing. Under the
// race detector sync.Pool drops a random quarter of the buffers put back
// into the scratch arena, so bytes per round are random there: the rounds
// still run, and the bound is skipped. One P keeps the arena's per-P cache
// from missing when the goroutine changes threads.
func TestCohortRoundAllocsIndependentOfK(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRound := func(k int) float64 {
		sim, err := New(Options{
			Scheme:        SchemeFedAvg,
			Model:         ModelMLP,
			Partition:     PartitionReplicate,
			ReplicaShards: 16,
			Clients:       k,
			LANs:          16,
			PerClass:      8,
			AggEvery:      1,
			BatchSize:     8,
			CohortSize:    16,
			Workers:       1,
			Seed:          5,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Trainer.Close()
		runtime.GC() // no collection of the setup's garbage inside the window
		for range 2 {
			sim.Trainer.RunRound(nil)
		}
		const rounds = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			sim.Trainer.RunRound(nil)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, large := perRound(2_000), perRound(100_000)
	t.Logf("bytes allocated per round: K=2000 %.0f, K=100000 %.0f", small, large)
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled buffers at random")
	}
	if large > 1.1*small+16<<10 {
		t.Fatalf("a round at K=100000 allocates %.0f B against %.0f B at K=2000: per-round allocation grows with the population", large, small)
	}
}
