package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"fedmigr/internal/core"
	"fedmigr/internal/nn"
)

// Multi-job (fleet) run-state layout, version 2 of the run-state schema:
//
//	dir/
//	  runstate.json          — manifest: version, fleet round, per-job progress
//	  jobs/<name>/model.bin  — each job's global model
//	  jobs/<name>/metrics.csv
//
// The version-1 layout (SaveRunState) is a bare model.bin + metrics.csv
// with no manifest; the two loaders detect each other's layout and fail
// with a pointed error instead of misreading bytes.
const (
	// RunStateManifest is the fleet manifest file inside a run-state
	// directory; its presence marks a version-2 (multi-job) checkpoint.
	RunStateManifest = "runstate.json"
	// FleetJobsDir holds the per-job subdirectories of a fleet checkpoint.
	FleetJobsDir = "jobs"
	// FleetStateVersion is the current fleet run-state schema version.
	FleetStateVersion = 2
)

// JobProgress is one job's resume point: counters for core's Restore plus
// the completed-round count the fleet scheduler needs.
type JobProgress struct {
	// Epoch and Round are the job trainer's counters (core.Trainer.Restore
	// arguments) at checkpoint time.
	Epoch int `json:"epoch"`
	Round int `json:"round"`
}

// FleetManifest is the versioned run-state index for multi-job runs.
type FleetManifest struct {
	Version int `json:"version"`
	// Round is the fleet round counter (fleet.Manager.Restore argument).
	Round int                    `json:"round"`
	Jobs  map[string]JobProgress `json:"jobs"`
}

// FleetJobState is one job's persisted payload.
type FleetJobState struct {
	Model    *nn.Sequential
	History  []core.RoundMetrics
	Progress JobProgress
}

// jobDir validates a job name as a path component and returns its
// checkpoint directory.
func jobDir(dir, name string) (string, error) {
	if name == "" || name != filepath.Base(name) || name[0] == '.' {
		return "", fmt.Errorf("checkpoint: job name %q is not a safe path component", name)
	}
	return filepath.Join(dir, FleetJobsDir, name), nil
}

// SaveFleetState persists a resumable multi-job snapshot: every job's
// model and metrics first, the manifest last — the manifest is the commit
// point, so a crash mid-save leaves either the previous complete
// checkpoint's manifest or the new one, never a manifest pointing at
// missing job files.
func SaveFleetState(dir string, fleetRound int, jobs map[string]FleetJobState) error {
	manifest := FleetManifest{
		Version: FleetStateVersion, Round: fleetRound,
		Jobs: make(map[string]JobProgress, len(jobs)),
	}
	for name, js := range jobs {
		jd, err := jobDir(dir, name)
		if err != nil {
			return err
		}
		if js.Model == nil {
			return fmt.Errorf("checkpoint: job %q has no model", name)
		}
		if err := SaveModel(filepath.Join(jd, RunStateModel), js.Model); err != nil {
			return err
		}
		if err := SaveMetricsCSV(filepath.Join(jd, RunStateMetrics), js.History); err != nil {
			return err
		}
		manifest.Jobs[name] = js.Progress
	}
	b, err := json.MarshalIndent(&manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: manifest: %w", err)
	}
	return writeAtomic(filepath.Join(dir, RunStateManifest), append(b, '\n'))
}

// LoadFleetManifest reads and validates a fleet checkpoint's manifest. A
// directory holding a version-1 single-job checkpoint (model.bin without a
// manifest) is reported as such rather than as a bare missing-file error.
func LoadFleetManifest(dir string) (*FleetManifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, RunStateManifest))
	if err != nil {
		if os.IsNotExist(err) {
			if _, serr := os.Stat(filepath.Join(dir, RunStateModel)); serr == nil {
				return nil, fmt.Errorf(
					"checkpoint: %s holds an old single-job run state (no %s manifest): resume it without a -jobs spec, or start the multi-job run in a fresh directory",
					dir, RunStateManifest)
			}
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var m FleetManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: manifest %s: %w", dir, err)
	}
	if m.Version != FleetStateVersion {
		return nil, fmt.Errorf("checkpoint: manifest %s has schema version %d, this build reads version %d",
			dir, m.Version, FleetStateVersion)
	}
	return &m, nil
}

// LoadFleetState restores a snapshot written by SaveFleetState. models
// maps job name → destination model (architectures must match); every job
// in the manifest must have a destination and vice versa. Returns the
// manifest and each job's recorded history.
func LoadFleetState(dir string, models map[string]*nn.Sequential) (*FleetManifest, map[string][]core.RoundMetrics, error) {
	m, err := LoadFleetManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(models) != len(m.Jobs) {
		return nil, nil, fmt.Errorf("checkpoint: %s has %d jobs, caller expects %d", dir, len(m.Jobs), len(models))
	}
	histories := make(map[string][]core.RoundMetrics, len(m.Jobs))
	for name := range m.Jobs {
		model, ok := models[name]
		if !ok || model == nil {
			return nil, nil, fmt.Errorf("checkpoint: %s has job %q the caller did not declare", dir, name)
		}
		jd, err := jobDir(dir, name)
		if err != nil {
			return nil, nil, err
		}
		hist, err := LoadRunState(jd, model)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: job %q: %w", name, err)
		}
		histories[name] = hist
	}
	return m, histories, nil
}
