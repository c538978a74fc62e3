package experiments

import (
	"fmt"

	fedmigr "fedmigr"
	"fedmigr/internal/drl"
)

func init() {
	register(abl{})
}

// abl is the ablation study DESIGN.md §8 calls for — not a paper artifact,
// but the component-wise breakdown of the EMPG design choices:
//
//   - migration policy (none / random / greedy-EMD / DRL pre-trained)
//   - ρ-greedy exploration on vs off for the DRL agent
//   - prioritized replay on vs off for the DRL agent
//
// Each variant trains the same non-IID workload at a matched epoch budget;
// the DRL variants are pre-trained offline first (Sec. III-B's workflow).
type abl struct{}

func (abl) ID() string    { return "abl" }
func (abl) Title() string { return "Ablations — migration policy & EMPG components (extension)" }

func (abl) Run(p Params) (*Report, error) {
	p = p.withDefaults()
	rep := &Report{
		ID: "abl", Title: "Component ablations on the C10 non-IID workload",
		Header: []string{"variant", "best acc", "C2S traffic", "wall time"},
		Notes: []string{
			"stay = FedMigr with migration disabled (periodic-averaging local SGD)",
			"DRL agents are pre-trained offline for 8 short episodes, then frozen",
		},
	}

	base := func() fedmigr.Options {
		o := baseOptions(p, fedmigr.SchemeFedMigr)
		o.Epochs = p.scaleInt(30, 15)
		return o
	}

	addRow := func(name string, res *fedmigr.Result) {
		rep.Rows = append(rep.Rows, []string{
			name, pct(res.BestAcc()), mb(res.Snapshot.C2SBytes), secs(res.Snapshot.WallSeconds),
		})
	}

	// Fixed policies.
	for _, v := range []struct {
		name string
		kind fedmigr.MigratorKind
	}{
		{"no migration (stay)", fedmigr.MigratorStay},
		{"random migration", fedmigr.MigratorRandom},
		{"greedy-EMD migration", fedmigr.MigratorGreedyEMD},
	} {
		o := base()
		o.Migrator = v.kind
		res, err := fedmigr.Run(o)
		if err != nil {
			return nil, fmt.Errorf("abl %s: %w", v.name, err)
		}
		addRow(v.name, res)
	}

	// DRL variants: pre-train offline, deploy frozen.
	drlVariant := func(name string, cfg drl.MigratorConfig) error {
		cfg.K = base().Clients
		agent := drl.NewMigrator(cfg)
		// One Pretrain episode at a time, each on its own cost model
		// built from the same seed: a shared one would let every
		// episode's transfers shift the next one's jitter draws. Pretrain
		// seeds episode 0 of a call Seed+1000, so offsetting Seed by ep
		// keeps the episode seeds of one 8-episode call.
		for ep := 0; ep < 8; ep++ {
			pre := base()
			pre.Migrator = fedmigr.MigratorDRL
			pre.Seed += int64(ep)
			if err := fedmigr.Pretrain(agent, pre, 1, p.scaleInt(30, 10)); err != nil {
				return fmt.Errorf("abl pretrain %s: %w", name, err)
			}
		}
		agent.Frozen = true
		sim, err := fedmigr.NewWithMigrator(base(), agent)
		if err != nil {
			return fmt.Errorf("abl %s: %w", name, err)
		}
		addRow(name, sim.Run())
		return nil
	}
	if err := drlVariant("DRL (full EMPG)", drl.MigratorConfig{Seed: p.Seed + 50, Rho0: 0.8, MoversPerEvent: -1}); err != nil {
		return nil, err
	}
	if err := drlVariant("DRL w/o rho-greedy", drl.MigratorConfig{Seed: p.Seed + 60, Rho0: 1e-9, RhoMin: 1e-9, MoversPerEvent: -1}); err != nil {
		return nil, err
	}
	if err := drlVariant("DRL w/o prioritized replay", drl.MigratorConfig{
		Seed: p.Seed + 70, Rho0: 0.8, MoversPerEvent: -1,
		DDPG: drl.DDPGConfig{XiPER: -1},
	}); err != nil {
		return nil, err
	}
	return rep, nil
}
