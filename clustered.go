package fedmigr

import (
	"fmt"

	"fedmigr/internal/checkpoint"
	"fedmigr/internal/cluster"
	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/fleet"
	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/stats"
)

// ClusteredOptions configures a clustered-federation run: ONE dataset
// partitioned once over the shared clients, grouped by label-distribution
// EMD into Clusters cluster models that train concurrently as fleet jobs.
// Unlike FleetOptions — where every job brings its own dataset — all
// clusters here share the same partition; they differ only in which
// clients feed which model.
type ClusteredOptions struct {
	// Clusters is the number of cluster models k (default 3, clamped to
	// the client count).
	Clusters int
	// ReclusterEvery re-evaluates the client→cluster assignment every that
	// many fleet rounds, migrating clients whose label distribution has
	// drifted nearer another cluster's representative (0 = the initial
	// grouping is final).
	ReclusterEvery int
	// Rounds is each cluster model's round budget (default 20).
	Rounds int
	// MaxHydrated caps the summed per-round demand across cluster jobs
	// (0 disables admission control).
	MaxHydrated int

	// Options carries the shared training configuration: dataset,
	// partition, model, scheme, hyper-parameters, Workers, Seed. CohortSize
	// composes: each cluster samples min(CohortSize, members) clients per
	// round through the fleet allocator. Faults applies fleet-wide.
	Options
}

func (o ClusteredOptions) withDefaults() ClusteredOptions {
	if o.Clusters <= 0 {
		o.Clusters = 3
	}
	if o.Rounds <= 0 {
		o.Rounds = 20
	}
	o.Options = o.Options.withDefaults()
	return o
}

// Clustered is an assembled clustered-federation simulation: a
// cluster.Manager owning the assignment over a fleet.Manager whose jobs
// ("cluster-0" … "cluster-k-1") carry the per-cluster models.
type Clustered struct {
	Manager  *cluster.Manager
	Fleet    *fleet.Manager
	Test     *data.Dataset
	Topology *edgenet.Topology
	Cost     *edgenet.CostModel
	Options  ClusteredOptions

	names []string
	pool  *sched.Pool
}

// NewClustered assembles a clustered run: build the shared partition,
// cluster clients by pairwise label-distribution EMD (seeded k-medoids),
// submit one fleet job per cluster — same model factory and seed, so every
// cluster starts from identical weights and diverges only through its
// members' data — and bind the cluster manager over them.
func NewClustered(o ClusteredOptions) (*Clustered, error) {
	o = o.withDefaults()
	base := o.Options

	train, test, spec, err := buildDataset(base)
	if err != nil {
		return nil, err
	}
	parts, topo, err := partition(base, train)
	if err != nil {
		return nil, err
	}
	dists := make([]stats.Distribution, base.Clients)
	samples := make([]int, base.Clients)
	for i, p := range parts {
		dists[i] = p.LabelDistribution()
		samples[i] = p.Len()
	}
	cm, err := cluster.New(cluster.Config{
		Clusters: o.Clusters, ReclusterEvery: o.ReclusterEvery, Seed: base.Seed + 17,
	}, dists, samples)
	if err != nil {
		return nil, err
	}
	cm.SetTelemetry(base.Telemetry)

	cost := base.Cost
	if cost == nil {
		cost = edgenet.DefaultCostModel()
		cost.Jitter = 0.1
		cost.Seed(base.Seed + 7)
	}
	pool := sched.New(base.Workers)
	fm, err := fleet.New(fleet.Config{
		MaxHydrated: o.MaxHydrated, Seed: base.Seed,
	}, topo, cost, base.Faults, pool)
	if err != nil {
		pool.Close()
		return nil, err
	}
	fm.SetTelemetry(base.Telemetry)

	c := &Clustered{
		Manager: cm, Fleet: fm, Test: test, Topology: topo, Cost: cost,
		Options: o, pool: pool,
	}
	factory, err := buildFactory(base, spec)
	if err != nil {
		c.Close()
		return nil, err
	}
	for ci := 0; ci < cm.K(); ci++ {
		tr, err := clusterTrainer(base, parts, test, topo, cost, factory, pool)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("fedmigr: cluster %d: %w", ci, err)
		}
		members := cm.Members(ci)
		demand := len(members)
		if base.CohortSize > 0 && base.CohortSize < demand {
			demand = base.CohortSize
		}
		name := fmt.Sprintf("cluster-%d", ci)
		if _, err := fm.Submit(fleet.JobConfig{
			Name: name, Demand: demand, Rounds: o.Rounds,
			Samples: samples, Members: members,
		}, tr); err != nil {
			tr.Close()
			c.Close()
			return nil, fmt.Errorf("fedmigr: cluster %d: %w", ci, err)
		}
		c.names = append(c.names, name)
	}
	if err := cm.Bind(fm, c.names); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// clusterTrainer builds one cluster job's trainer over the SHARED
// partition: every cluster's trainer spans all K clients (membership is
// enforced by the fleet allocator), lazily hydrated on the shared pool,
// with the same seed — identical initial weights across clusters.
func clusterTrainer(base Options, parts []*data.Dataset, test *data.Dataset,
	topo *edgenet.Topology, cost *edgenet.CostModel, factory core.ModelFactory,
	pool *sched.Pool) (*core.Trainer, error) {
	clients := make([]*core.Client, len(parts))
	for i, p := range parts {
		clients[i] = &core.Client{ID: i, Data: p}
	}
	mig, err := buildMigrator(base, topo)
	if err != nil {
		return nil, err
	}
	mech, err := buildPrivacy(base)
	if err != nil {
		return nil, err
	}
	cfg := coreConfig(base, mech)
	cfg.CohortSize = 0 // the fleet allocator IS the cohort sampler
	cfg.Faults = nil   // the manager owns fault interpretation
	cfg.LazyHydration = true
	cfg.Pool = pool
	tr, err := core.NewTrainer(cfg, clients, topo, cost, test, factory, mig)
	if err != nil {
		return nil, err
	}
	tr.SetTelemetry(base.Telemetry)
	return tr, nil
}

// Run drives fleet rounds (with cluster re-evaluation on the configured
// cadence) until every cluster model exhausts its budget or maxRounds
// elapse (0 = unbounded). Returns the rounds executed.
func (c *Clustered) Run(maxRounds int) int { return c.Manager.Run(maxRounds) }

// RunRound steps one fleet round, returning the number of jobs served.
func (c *Clustered) RunRound() int { return c.Manager.RunRound() }

// Models returns the per-cluster global models, cluster order.
func (c *Clustered) Models() []*nn.Sequential {
	out := make([]*nn.Sequential, len(c.names))
	for i, name := range c.names {
		out[i] = c.Fleet.Job(name).Trainer.GlobalModel()
	}
	return out
}

// Evaluate scores the clustered federation on the shared test set. Each
// test sample is routed to the cluster whose representative label
// distribution weights the sample's label highest (ties to the lowest
// cluster) and scored under THAT cluster's model; overall is the routed
// accuracy, perCluster[k] is cluster k's own accuracy over the full test
// set. Routed accuracy is the clustered counterpart of a single global
// model's accuracy: one number over the whole test set, achievable by a
// deployment that knows only each client's label mix.
func (c *Clustered) Evaluate() (overall float64, perCluster []float64) {
	models := c.Models()
	reps := c.Manager.Representatives()
	route := make([]int, c.Test.Classes)
	for l := range route {
		best := 0
		for k := 1; k < len(reps); k++ {
			if reps[k][l] > reps[best][l] {
				best = k
			}
		}
		route[l] = best
	}

	perCluster = make([]float64, len(models))
	routedHits := 0
	n := c.Test.Len()
	ch, h, w := c.Test.Spec()
	for lo := 0; lo < n; lo += 256 {
		hi := lo + 256
		if hi > n {
			hi = n
		}
		// One batch buffer (the first model's) feeds every cluster model;
		// each model's logits live in its own layers until its next Forward.
		x := models[0].Input(hi-lo, ch, h, w)
		labels := c.Test.BatchInto(x.Data(), lo, hi)
		for k, m := range models {
			logits := m.Forward(x, false)
			perCluster[k] += nn.Accuracy(logits, labels) * float64(hi-lo)
			rows, classes := logits.Dim(0), logits.Dim(1)
			ld := logits.Data()
			for r := 0; r < rows; r++ {
				if route[labels[r]] != k {
					continue
				}
				argmax, row := 0, ld[r*classes:(r+1)*classes]
				for j, v := range row {
					if v > row[argmax] {
						argmax = j
					}
				}
				if argmax == labels[r] {
					routedHits++
				}
			}
		}
	}
	for k := range perCluster {
		perCluster[k] /= float64(n)
	}
	return float64(routedHits) / float64(n), perCluster
}

// Close releases every cluster trainer and the shared pool.
func (c *Clustered) Close() {
	for _, j := range c.Fleet.Jobs() {
		if j.Trainer != nil {
			j.Trainer.Close()
		}
	}
	c.pool.Close()
}

// SaveState persists the clustered run to dir as a version-2 fleet state
// (one model subdirectory per cluster job) plus the version-4 cluster
// manifest recording the client→cluster assignment — written last, as the
// clustered commit point.
func (c *Clustered) SaveState(dir string) error {
	jobs := make(map[string]checkpoint.FleetJobState, len(c.names))
	for _, j := range c.Fleet.Jobs() {
		jobs[j.Cfg.Name] = checkpoint.FleetJobState{
			Model:   j.Trainer.GlobalModel(),
			History: j.History,
			Progress: checkpoint.JobProgress{
				Epoch: j.Trainer.Epoch(), Round: j.RoundsDone,
			},
		}
	}
	if err := checkpoint.SaveFleetState(dir, c.Fleet.Round(), jobs); err != nil {
		return err
	}
	return checkpoint.SaveClusterManifest(dir, checkpoint.ClusterManifest{
		Clusters:       c.Manager.K(),
		ReclusterEvery: c.Options.ReclusterEvery,
		Seed:           c.Options.Seed + 17,
		Round:          c.Fleet.Round(),
		Assign:         c.Manager.Assignments(),
		Medoids:        c.Manager.Medoids(),
		Moves:          c.Manager.Moves(),
		HandoffBytes:   c.Manager.HandoffBytes(),
	})
}

// RestoreState resumes a freshly assembled clustered run from a SaveState
// checkpoint: per-cluster models, histories and round counters, the fleet
// scheduling state, and the saved client→cluster assignment (cluster jobs
// are rebound to the checkpointed membership, which may differ from the
// fresh k-medoids grouping if the saved run had reclustered). A checkpoint
// without a cluster manifest is refused — restoring cluster models without
// their assignment would silently regroup clients from scratch.
func (c *Clustered) RestoreState(dir string) error {
	man, err := checkpoint.LoadClusterManifest(dir)
	if err != nil {
		return err
	}
	if man == nil {
		return fmt.Errorf("fedmigr: %s is not a clustered checkpoint (no %s)", dir, checkpoint.ClusterFile)
	}
	if man.Clusters != c.Manager.K() {
		return fmt.Errorf("fedmigr: checkpoint has %d clusters, run has %d", man.Clusters, c.Manager.K())
	}
	models := make(map[string]*nn.Sequential, len(c.names))
	for _, j := range c.Fleet.Jobs() {
		models[j.Cfg.Name] = j.Trainer.GlobalModel()
	}
	fman, histories, err := checkpoint.LoadFleetState(dir, models)
	if err != nil {
		return err
	}
	roundsDone := make(map[string]int, len(fman.Jobs))
	for name, p := range fman.Jobs {
		j := c.Fleet.Job(name)
		if j == nil {
			return fmt.Errorf("fedmigr: checkpoint job %q not in clustered run", name)
		}
		if err := j.Trainer.Restore(p.Epoch, p.Round); err != nil {
			return fmt.Errorf("fedmigr: job %q: %w", name, err)
		}
		j.History = append(j.History[:0], histories[name]...)
		roundsDone[name] = p.Round
	}
	if err := c.Fleet.Restore(fman.Round, roundsDone); err != nil {
		return err
	}
	return c.Manager.Restore(man.Assign, man.Medoids, man.Moves, man.HandoffBytes)
}
