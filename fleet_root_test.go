package fedmigr

import (
	"crypto/sha256"
	"testing"

	"fedmigr/internal/faults"
	"fedmigr/internal/fleet"
)

// fleetJobs3 is the shared scenario of the multi-tenant end-to-end tests:
// three heterogeneous jobs — different schemes, models and datasets —
// training concurrently over one 1000-client fleet. Replicated partitions
// keep dataset memory independent of the fleet size; lazy hydration keeps
// model memory proportional to the summed demand, not to K.
func fleetJobs3() []JobSpec {
	base := Options{
		Partition: PartitionReplicate, ReplicaShards: 8,
		PerClass: 8, Noise: 0.8,
		AggEvery: 2, Tau: 1, BatchSize: 8, LR: 0.05,
	}
	a, b, c := base, base, base
	a.Scheme, a.Model, a.Dataset = SchemeFedAvg, ModelMLP, DatasetC10
	b.Scheme, b.Model, b.Dataset = SchemeFedProx, ModelMLP, DatasetC10
	b.ProxMu = 0.1
	c.Scheme, c.Model, c.Dataset = SchemeFedMigr, ModelMLP, DatasetC100
	c.Migrator = MigratorGreedyEMD
	return []JobSpec{
		{Name: "avg-c10", Demand: 8, Rounds: 2, Options: a},
		{Name: "prox-c10", Demand: 6, Rounds: 2, Options: b},
		{Name: "migr-c100", Demand: 8, Rounds: 2, Options: c},
	}
}

// runFleet3 executes the three-job fleet at the given worker count and
// returns each job's final global-model digest.
func runFleet3(t *testing.T, workers int) map[string][32]byte {
	t.Helper()
	f, err := NewFleet(FleetOptions{
		Clients: 1000, LANs: 10, Workers: workers, Seed: 9,
		Jobs: fleetJobs3(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Run(12)
	digests := make(map[string][32]byte)
	for _, j := range f.Manager.Jobs() {
		if j.State != fleet.Done {
			t.Fatalf("job %s finished %d/%d rounds (state %s)",
				j.Cfg.Name, j.RoundsDone, j.Cfg.Rounds, j.State)
		}
		bts, err := j.Trainer.GlobalModel().MarshalParams()
		if err != nil {
			t.Fatal(err)
		}
		digests[j.Cfg.Name] = sha256.Sum256(bts)
	}
	return digests
}

// TestFleetWorkerInvariance1k extends DESIGN.md §5's determinism invariant
// across the job dimension at scale: three concurrent jobs over a shared
// 1000-client fleet produce bit-identical per-job global models whether
// the shared pool runs 1 worker or 8.
func TestFleetWorkerInvariance1k(t *testing.T) {
	serial := runFleet3(t, 1)
	parallel := runFleet3(t, 8)
	for name, d := range serial {
		if parallel[name] != d {
			t.Errorf("job %s: 8-worker model diverged from serial", name)
		}
	}
}

// TestFleetFaultsChaos runs the three jobs under a fault plan — permanent
// crashes, a rolling outage window, and stragglers — and requires that no
// job loses a round: dead clients are reallocated across ALL jobs, so with
// 1000 clients and a handful faulted every job still completes its budget
// in the minimum number of fleet rounds.
func TestFleetFaultsChaos(t *testing.T) {
	plan := faults.NewPlan(9)
	for c := 0; c < 10; c++ {
		plan.CrashAt(c, 0) // dead from the first fleet round
	}
	for c := 10; c < 30; c++ {
		plan.Outage(c, 1, 3)
	}
	plan.Straggler(31, 4.0)
	plan.Straggler(32, 2.5)

	f, err := NewFleet(FleetOptions{
		Clients: 1000, LANs: 10, Workers: 4,
		Faults: plan, Seed: 9,
		Jobs: fleetJobs3(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Run(12)
	for _, j := range f.Manager.Jobs() {
		if j.State != fleet.Done {
			t.Fatalf("job %s lost rounds under faults: %d/%d (state %s)",
				j.Cfg.Name, j.RoundsDone, j.Cfg.Rounds, j.State)
		}
	}
	// Every job's budget is 2 rounds and the fleet always had clients to
	// spare, so 2 fleet rounds must have sufficed.
	if got := f.Manager.Round(); got != 2 {
		t.Fatalf("fleet took %d rounds, want 2 (a job was starved)", got)
	}
}

// TestFleetAdmissionControl exercises the hydrated-replica budget through
// the public API: an over-budget job is rejected at assembly (kept in the
// job list for reporting), a job that does not fit *now* queues behind the
// running set and is promoted — and completes — once budget frees up.
func TestFleetAdmissionControl(t *testing.T) {
	base := Options{
		Partition: PartitionReplicate, ReplicaShards: 8, Model: ModelMLP,
		PerClass: 8, AggEvery: 1, Tau: 1, BatchSize: 8,
	}
	f, err := NewFleet(FleetOptions{
		Clients: 40, LANs: 4, Workers: 2, Seed: 11, MaxHydrated: 10,
		Jobs: []JobSpec{
			{Name: "first", Demand: 6, Rounds: 2, Options: base},
			{Name: "huge", Demand: 20, Rounds: 1, Options: base},
			{Name: "waits", Demand: 6, Rounds: 1, Options: base},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	jobs := f.Manager.Jobs()
	if got := jobs[1].State; got != fleet.Rejected {
		t.Fatalf("over-budget job state %s, want rejected", got)
	}
	if got := jobs[2].State; got != fleet.Queued {
		t.Fatalf("queued job state %s, want queued", got)
	}
	f.Run(8)
	if got := jobs[0].State; got != fleet.Done {
		t.Fatalf("first job state %s, want done", got)
	}
	if got := jobs[2].State; got != fleet.Done {
		t.Fatalf("promoted job state %s, want done", got)
	}
	if got := jobs[1].State; got != fleet.Rejected {
		t.Fatalf("rejected job state changed to %s", got)
	}
	// The queued job cannot have started before the running one finished:
	// it needed 1 round and the first needed 2, so at least 3 fleet rounds.
	if got := f.Manager.Round(); got < 3 {
		t.Fatalf("fleet finished in %d rounds; queue was jumped", got)
	}
}
