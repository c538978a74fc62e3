package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fedmigr/internal/faults"
)

// Membership manifest, version 3 of the run-state schema: alongside the
// model and metrics, a checkpoint records the cohort shape it was saved
// under — founding fleet size plus the plan's join/leave schedule. On
// -resume the runtime compares the saved shape against the one the current
// flags describe and refuses to silently continue a run whose membership
// drifted: resuming a 10-client schedule as an 8-client one shifts every
// seeded stream and allocator decision, so the "resumed" run would be a
// different experiment wearing the old run's history. Version-1/2
// checkpoints have no manifest; loaders warn and continue for those.
const (
	// MembershipFile is the membership manifest inside a run-state
	// directory; its presence marks a version-3 checkpoint.
	MembershipFile = "membership.json"
	// MembershipVersion is the current membership-manifest schema version.
	MembershipVersion = 3
)

// Membership is the persisted cohort shape of a run.
type Membership struct {
	Version int `json:"version"`
	// Clients is the founding cohort size (the -clients flag / core's K).
	Clients int `json:"clients"`
	// PlanSeed names the fault/churn schedule (0 when no plan was set —
	// matching faults.NewPlan's seed argument).
	PlanSeed int64 `json:"plan_seed"`
	// Joins and Leaves map client id → the epoch of the scheduled
	// membership event (encoding/json writes int keys as strings).
	Joins  map[int]int `json:"joins,omitempty"`
	Leaves map[int]int `json:"leaves,omitempty"`
}

// NewMembership captures the cohort shape of a run: the founding fleet
// size plus the plan's arrival and departure schedule (nil plan = static
// membership).
func NewMembership(clients int, plan *faults.Plan) Membership {
	m := Membership{
		Version: MembershipVersion, Clients: clients,
		Joins: plan.JoinSchedule(), Leaves: plan.LeaveSchedule(),
	}
	if plan != nil {
		m.PlanSeed = plan.Seed
	}
	return m
}

// Diff compares a saved membership against the shape the current run
// flags describe, returning one human-readable line per divergence (nil
// when the shapes match). PlanSeed differences are reported only when
// either side actually schedules churn — two static runs need not agree
// on an unused seed.
func (m Membership) Diff(cur Membership) []string {
	var out []string
	if m.Clients != cur.Clients {
		out = append(out, fmt.Sprintf("checkpoint has %d clients, flags say %d", m.Clients, cur.Clients))
	}
	churny := len(m.Joins)+len(m.Leaves)+len(cur.Joins)+len(cur.Leaves) > 0
	if churny && m.PlanSeed != cur.PlanSeed {
		out = append(out, fmt.Sprintf("checkpoint plan seed %d, flags say %d", m.PlanSeed, cur.PlanSeed))
	}
	out = append(out, diffSchedule("join", m.Joins, cur.Joins)...)
	out = append(out, diffSchedule("leave", m.Leaves, cur.Leaves)...)
	return out
}

// diffSchedule reports per-client divergences between two event maps in
// ascending client order.
func diffSchedule(kind string, saved, cur map[int]int) []string {
	ids := map[int]bool{}
	for c := range saved {
		ids[c] = true
	}
	for c := range cur {
		ids[c] = true
	}
	sorted := make([]int, 0, len(ids))
	for c := range ids {
		sorted = append(sorted, c)
	}
	sort.Ints(sorted)
	var out []string
	for _, c := range sorted {
		se, sok := saved[c]
		ce, cok := cur[c]
		switch {
		case sok && !cok:
			out = append(out, fmt.Sprintf("checkpoint schedules client %d to %s at epoch %d, flags do not", c, kind, se))
		case !sok && cok:
			out = append(out, fmt.Sprintf("flags schedule client %d to %s at epoch %d, checkpoint does not", c, kind, ce))
		case se != ce:
			out = append(out, fmt.Sprintf("client %d %ss at epoch %d in the checkpoint, %d under the flags", c, kind, se, ce))
		}
	}
	return out
}

// SaveMembership writes the membership manifest into a run-state
// directory (atomic rename, like every checkpoint file).
func SaveMembership(dir string, m Membership) error {
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: membership: %w", err)
	}
	return writeAtomic(filepath.Join(dir, MembershipFile), append(b, '\n'))
}

// LoadMembership reads a run state's membership manifest. A pre-version-3
// checkpoint (no manifest file) returns (nil, nil): the caller should
// warn that membership cannot be checked and continue — old checkpoints
// stay resumable. Newer schema versions are refused.
func LoadMembership(dir string) (*Membership, error) {
	b, err := os.ReadFile(filepath.Join(dir, MembershipFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var m Membership
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: membership %s: %w", dir, err)
	}
	if m.Version > MembershipVersion {
		return nil, fmt.Errorf("checkpoint: membership %s has schema version %d, this build reads up to %d",
			dir, m.Version, MembershipVersion)
	}
	return &m, nil
}

// CheckMembership compares a run state's saved membership against the
// current run's shape. A membership mismatch is an error listing every
// divergence unless allowDrift is set; pre-v3 checkpoints (no manifest)
// return the warning string instead so callers can surface it and
// continue.
func CheckMembership(dir string, cur Membership, allowDrift bool) (warning string, err error) {
	saved, err := LoadMembership(dir)
	if err != nil {
		return "", err
	}
	if saved == nil {
		return fmt.Sprintf("checkpoint %s predates membership manifests (schema < %d): cannot verify the cohort shape matches the flags",
			dir, MembershipVersion), nil
	}
	diffs := saved.Diff(cur)
	if len(diffs) == 0 {
		return "", nil
	}
	if allowDrift {
		return fmt.Sprintf("membership drift accepted (-allow-membership-drift):\n  %s",
			strings.Join(diffs, "\n  ")), nil
	}
	return "", fmt.Errorf(
		"checkpoint: %s was saved under a different membership:\n  %s\nresume with matching flags, or pass -allow-membership-drift to continue anyway",
		dir, strings.Join(diffs, "\n  "))
}
