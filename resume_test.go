package fedmigr

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fedmigr/internal/checkpoint"
)

// TestResumeMatchesStraightRun resumes a run the way cmd/fedmigr-sim does —
// run state saved after the first half, the model reloaded into a fresh
// simulation, the epoch budget cut by the checkpoint's epoch and the
// cohort stream shifted by its round — and requires the final global model
// to be bitwise the one a straight run of both halves ends on. It holds
// because every run ends on a closed round: the checkpoint holds the
// aggregated global, the same model the straight run distributes next.
func TestResumeMatchesStraightRun(t *testing.T) {
	const epochs = 8 // two halves of two 2-epoch rounds
	for _, scheme := range []Scheme{SchemeFedAvg, SchemeFedProx} {
		base := Options{
			Scheme: scheme, Model: ModelMLP, Clients: 4, LANs: 2, PerClass: 6,
			AggEvery: 2, ProxMu: 0.01, Workers: 1, Seed: 3,
		}
		params := func(sim *Simulation) []byte {
			b, err := sim.Trainer.GlobalModel().MarshalParams()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		build := func(o Options) *Simulation {
			sim, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}

		straight := base
		straight.Epochs = epochs
		whole := build(straight)
		whole.Run()

		first := base
		first.Epochs = epochs / 2
		sim := build(first)
		res := sim.Run()
		dir := t.TempDir()
		if err := checkpoint.SaveRunState(dir, sim.Trainer.GlobalModel(), res.History); err != nil {
			t.Fatal(err)
		}

		f, err := os.Open(filepath.Join(dir, checkpoint.RunStateMetrics))
		if err != nil {
			t.Fatal(err)
		}
		prior, err := checkpoint.ReadMetricsCSV(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		last := prior[len(prior)-1]
		rest := base
		rest.Epochs = epochs - last.Epoch
		rest.RoundOffset = last.Round
		resumed := build(rest)
		if err := checkpoint.LoadModel(filepath.Join(dir, checkpoint.RunStateModel), resumed.Trainer.GlobalModel()); err != nil {
			t.Fatal(err)
		}
		resumed.Run()

		if !bytes.Equal(params(resumed), params(whole)) {
			t.Errorf("%v: resumed at epoch %d round %d, the final global model differs from the straight run's",
				scheme, last.Epoch, last.Round)
		}
	}
}
