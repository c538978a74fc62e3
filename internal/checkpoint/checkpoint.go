// Package checkpoint persists training artifacts: model parameters, DDPG
// agents (actor/critic pairs), and run metrics. Formats are plain
// encoding/binary (models, via nn's parameter codec) and CSV (metrics), so
// checkpoints are portable and diffable. A downstream user can pre-train
// the EMPG agent once, save it, and deploy it frozen across runs — the
// paper's offline-training workflow.
//
// Run-state schema versions: v1 is a bare model.bin + metrics.csv; v2
// adds the runstate.json fleet manifest for multi-job runs; v3 adds
// membership.json, the cohort-shape manifest checked on resume. In-flight
// core.TrainState blobs follow the same discipline as these files: a
// magic ("FMTS") plus an explicit big-endian version precede the payload,
// the version bumps on ANY field change, readers accept only versions
// they know (never forward-parse a newer blob), and the magic never
// changes — so a state migrated between nodes of mismatched builds fails
// loudly instead of resuming garbage.
package checkpoint

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"fedmigr/internal/core"
	"fedmigr/internal/nn"
)

// writeAtomic writes b to path through path.tmp and a rename, creating
// parent directories as needed: a process crash or write error mid-save
// leaves the previous file (or none) in place, never a torn one. Every
// checkpoint file is written through it.
func writeAtomic(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// SaveModel writes a model's parameters to path, creating parent
// directories as needed.
func SaveModel(path string, m *nn.Sequential) error {
	return writeAtomic(path, m.AppendParams(nil))
}

// LoadModel reads parameters from path into m, whose architecture must
// match the checkpoint.
func LoadModel(path string, m *nn.Sequential) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: read: %w", err)
	}
	if err := m.UnmarshalParams(b); err != nil {
		return fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return nil
}

// WriteMetricsCSV streams a run's evaluation history as CSV with a header
// row: epoch, round, train_loss, test_acc, total_mb, c2s_mb, local_mb,
// wall_s, compute_s.
func WriteMetricsCSV(w io.Writer, history []core.RoundMetrics) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"epoch", "round", "train_loss", "test_acc",
		"total_mb", "c2s_mb", "local_mb", "wall_s", "compute_s",
	}); err != nil {
		return fmt.Errorf("checkpoint: csv header: %w", err)
	}
	for _, m := range history {
		rec := []string{
			strconv.Itoa(m.Epoch),
			strconv.Itoa(m.Round),
			strconv.FormatFloat(m.TrainLoss, 'g', 8, 64),
			strconv.FormatFloat(m.TestAcc, 'g', 8, 64),
			strconv.FormatFloat(float64(m.Snapshot.TotalBytes)/1e6, 'g', 8, 64),
			strconv.FormatFloat(float64(m.Snapshot.C2SBytes)/1e6, 'g', 8, 64),
			strconv.FormatFloat(float64(m.Snapshot.LocalBytes)/1e6, 'g', 8, 64),
			strconv.FormatFloat(m.Snapshot.WallSeconds, 'g', 8, 64),
			strconv.FormatFloat(m.Snapshot.ComputeSecs, 'g', 8, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("checkpoint: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveMetricsCSV writes a run's history to a CSV file, atomically like
// every checkpoint file.
func SaveMetricsCSV(path string, history []core.RoundMetrics) error {
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, history); err != nil {
		return err
	}
	return writeAtomic(path, buf.Bytes())
}

// Run-state checkpoint layout: a directory holding the global model and
// the metrics history, written atomically enough to survive a crash
// between the two files (the model is written first; a stale metrics file
// only costs re-running already-recorded epochs).
const (
	// RunStateModel is the global-model file inside a run-state directory.
	RunStateModel = "model.bin"
	// RunStateMetrics is the metrics-history file inside a run-state
	// directory.
	RunStateMetrics = "metrics.csv"
)

// SaveRunState persists a resumable snapshot of a run — the current
// global model plus the evaluation history so far — into dir.
func SaveRunState(dir string, model *nn.Sequential, history []core.RoundMetrics) error {
	if err := SaveModel(filepath.Join(dir, RunStateModel), model); err != nil {
		return err
	}
	return SaveMetricsCSV(filepath.Join(dir, RunStateMetrics), history)
}

// LoadRunState restores a snapshot written by SaveRunState: the model
// parameters are loaded into model (whose architecture must match) and
// the recorded history is returned. A missing directory or model file is
// reported via os.IsNotExist-compatible errors.
func LoadRunState(dir string, model *nn.Sequential) ([]core.RoundMetrics, error) {
	// A directory with a fleet manifest but no top-level model is a
	// version-2 multi-job checkpoint — refuse it with directions instead of
	// failing on the missing model file.
	if _, err := os.Stat(filepath.Join(dir, RunStateModel)); os.IsNotExist(err) {
		if _, merr := os.Stat(filepath.Join(dir, RunStateManifest)); merr == nil {
			return nil, fmt.Errorf(
				"checkpoint: %s holds a multi-job run state (version-2 manifest): resume it with the matching -jobs spec, not as a single-job run",
				dir)
		}
	}
	if err := LoadModel(filepath.Join(dir, RunStateModel), model); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, RunStateMetrics))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	//lint:ignore errcheck read-only file: a Close error cannot lose data
	defer f.Close()
	return ReadMetricsCSV(f)
}

// ReadMetricsCSV parses a CSV produced by WriteMetricsCSV back into the
// epoch/loss/accuracy triples (resource columns are not reconstructed into
// snapshots; they are reporting-only).
func ReadMetricsCSV(r io.Reader) ([]core.RoundMetrics, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("checkpoint: empty csv")
	}
	var out []core.RoundMetrics
	for i, rec := range rows[1:] {
		if len(rec) < 4 {
			return nil, fmt.Errorf("checkpoint: csv row %d has %d fields", i+1, len(rec))
		}
		epoch, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("checkpoint: csv row %d epoch: %w", i+1, err)
		}
		round, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("checkpoint: csv row %d round: %w", i+1, err)
		}
		loss, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: csv row %d loss: %w", i+1, err)
		}
		acc, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: csv row %d acc: %w", i+1, err)
		}
		out = append(out, core.RoundMetrics{Epoch: epoch, Round: round, TrainLoss: loss, TestAcc: acc})
	}
	return out, nil
}
