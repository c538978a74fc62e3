package fedmigr

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// runFedMigr executes a short two-round FedMigr simulation (DRL migrator,
// non-IID shards) at the given worker count and returns the result plus a
// digest of the global model's parameters.
func runFedMigr(t *testing.T, workers int, shuffle bool) (*Result, [32]byte) {
	t.Helper()
	sim, err := New(Options{
		Scheme:    SchemeFedMigr,
		Migrator:  MigratorDRL,
		Model:     ModelMLP,
		Clients:   6,
		LANs:      2,
		PerClass:  8,
		Epochs:    8,
		AggEvery:  4, // 2 aggregations in 8 epochs: a 2-round run
		BatchSize: 8,
		EvalEvery: 4,
		Workers:   workers, ShuffleBatches: shuffle,
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	b, err := sim.Trainer.GlobalModel().MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	return res, sha256.Sum256(b)
}

// TestParallelRunMatchesSerial is the end-to-end determinism proof the
// scheduler promises: a FedMigr run — local SGD, DRL migration decisions,
// aggregation, evaluation — produces bit-identical model parameters and
// metrics whether it runs on one worker or eight.
func TestParallelRunMatchesSerial(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		serialRes, serialSum := runFedMigr(t, 1, shuffle)
		parallelRes, parallelSum := runFedMigr(t, 8, shuffle)
		if serialSum != parallelSum {
			t.Fatalf("shuffle=%v: global model diverges between workers=1 and workers=8", shuffle)
		}
		if serialRes.Rounds != parallelRes.Rounds || serialRes.Epochs != parallelRes.Epochs {
			t.Fatalf("shuffle=%v: run shape diverges: rounds %d vs %d, epochs %d vs %d",
				shuffle, serialRes.Rounds, parallelRes.Rounds, serialRes.Epochs, parallelRes.Epochs)
		}
		if len(serialRes.History) != len(parallelRes.History) {
			t.Fatalf("shuffle=%v: history length %d vs %d", shuffle, len(serialRes.History), len(parallelRes.History))
		}
		for i := range serialRes.History {
			s, p := serialRes.History[i], parallelRes.History[i]
			if s.TrainLoss != p.TrainLoss || s.TestAcc != p.TestAcc ||
				s.Snapshot.TotalBytes != p.Snapshot.TotalBytes ||
				s.Snapshot.ComputeSecs != p.Snapshot.ComputeSecs {
				t.Fatalf("shuffle=%v: round %d metrics diverge:\nserial   %+v\nparallel %+v", shuffle, i, s, p)
			}
		}
	}
}

// goldenRun digests the global model of a short run at one worker.
func goldenRun(t *testing.T, o Options) string {
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
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestGoldenModelHashes pins the arithmetic itself, not just its
// invariance: the digests below are of runs whose every round, the last
// one included, is aggregated, and the kernels computing them are
// bit-identical to the textbook ones (one accumulator, one term at a
// time; the MatchesReference tests prove it), so a kernel that reorders a
// single sum — and would move every model hash the benchmark gates on —
// fails here first. amd64 only: arm64 fuses multiply-adds, which rounds
// differently by design.
func TestGoldenModelHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	cnn := goldenRun(t, Options{
		Scheme: SchemeFedMigr, Migrator: MigratorGreedyEMD, Model: ModelC10CNN,
		Clients: 6, LANs: 2, PerClass: 12, Epochs: 6, AggEvery: 2, // 3 rounds
		BatchSize: 8, EvalEvery: 2, Workers: 1, Seed: 7,
	})
	if want := "9e4acf911168b2724c034188383a31c59e815c877adb86ca44ec7d64cfa95d8d"; cnn != want {
		t.Errorf("3-round C10CNN FedMigr run: global model digest %s, want %s", cnn, want)
	}
	_, sum := runFedMigr(t, 1, false)
	if got, want := fmt.Sprintf("%x", sum), "bf1963fac4abc29ee6133aa3280c9367effe6a5354da903400781d5bd2829403"; got != want {
		t.Errorf("2-round DRL run: global model digest %s, want %s", got, want)
	}
}
