package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Cluster-assignment manifest, version 4 of the run-state schema: a
// clustered-federation checkpoint is a version-2 fleet state (one model
// subdirectory per cluster job) PLUS this manifest recording which client
// belonged to which cluster model when the state was saved. Restoring the
// models without the assignment would silently regroup clients from
// scratch — a different experiment wearing the old run's models — so the
// loader refuses clustered resumes without it.
const (
	// ClusterFile is the cluster-assignment manifest inside a run-state
	// directory; its presence marks a version-4 (clustered) checkpoint.
	ClusterFile = "clusters.json"
	// ClusterVersion is the current cluster-manifest schema version.
	ClusterVersion = 4
)

// ClusterManifest is the persisted client→cluster assignment of a
// clustered run.
type ClusterManifest struct {
	Version int `json:"version"`
	// Clusters is the number of cluster models k.
	Clusters int `json:"clusters"`
	// ReclusterEvery is the re-evaluation cadence the run was configured
	// with (0 = assignments frozen after initialization).
	ReclusterEvery int `json:"recluster_every"`
	// Seed is the clustering seed (k-medoids initialization).
	Seed int64 `json:"seed"`
	// Round is the fleet round the assignment was captured at.
	Round int `json:"round"`
	// Assign[i] is client i's cluster in [0, Clusters).
	Assign []int `json:"assign"`
	// Medoids[c] is cluster c's medoid (and pinned anchor) client.
	Medoids []int `json:"medoids"`
	// Moves is the cumulative count of inter-cluster client migrations.
	Moves int `json:"moves"`
	// HandoffBytes is the cumulative warm-handoff traffic those moves cost.
	HandoffBytes int64 `json:"handoff_bytes"`
}

// validate checks internal consistency of a manifest.
func (m ClusterManifest) validate() error {
	if m.Clusters <= 0 {
		return fmt.Errorf("checkpoint: cluster manifest has %d clusters", m.Clusters)
	}
	if len(m.Medoids) != m.Clusters {
		return fmt.Errorf("checkpoint: cluster manifest has %d medoids for %d clusters",
			len(m.Medoids), m.Clusters)
	}
	for i, c := range m.Assign {
		if c < 0 || c >= m.Clusters {
			return fmt.Errorf("checkpoint: cluster manifest assigns client %d to cluster %d of %d",
				i, c, m.Clusters)
		}
	}
	for c, mid := range m.Medoids {
		if mid < 0 || mid >= len(m.Assign) {
			return fmt.Errorf("checkpoint: cluster %d medoid %d out of range [0,%d)",
				c, mid, len(m.Assign))
		}
		if m.Assign[mid] != c {
			return fmt.Errorf("checkpoint: cluster %d medoid %d is assigned to cluster %d",
				c, mid, m.Assign[mid])
		}
	}
	return nil
}

// SaveClusterManifest writes the cluster-assignment manifest into a
// run-state directory (atomic rename, like every checkpoint file). It is
// the clustered checkpoint's commit point — written after the fleet state.
func SaveClusterManifest(dir string, m ClusterManifest) error {
	m.Version = ClusterVersion
	if err := m.validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: cluster manifest: %w", err)
	}
	return writeAtomic(filepath.Join(dir, ClusterFile), append(b, '\n'))
}

// LoadClusterManifest reads a run state's cluster-assignment manifest. A
// non-clustered checkpoint (no manifest file) returns (nil, nil) so
// callers can distinguish "not clustered" from corruption; newer schema
// versions and internally inconsistent manifests are refused.
func LoadClusterManifest(dir string) (*ClusterManifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ClusterFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var m ClusterManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: cluster manifest %s: %w", dir, err)
	}
	if m.Version > ClusterVersion {
		return nil, fmt.Errorf("checkpoint: cluster manifest %s has schema version %d, this build reads up to %d",
			dir, m.Version, ClusterVersion)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
