package experiments

import (
	"fmt"
	"math"
	"time"

	fedmigr "fedmigr"
	"fedmigr/internal/drl"
	"fedmigr/internal/qp"
	"fedmigr/internal/tensor"
)

func init() {
	register(fig5{})
	register(fig6{})
	register(fig7{})
}

// fig5 reproduces Fig. 5: accuracy versus aggregation period ("agg2" …
// "agg100"): more migration rounds per global iteration improve accuracy
// under non-IID data. Paper shape: accuracy rises from agg2 to agg100.
type fig5 struct{}

func (fig5) ID() string    { return "fig5" }
func (fig5) Title() string { return "Fig. 5 — accuracy vs rounds of migration per global iteration" }

func (fig5) Run(p Params) (*Report, error) {
	p = p.withDefaults()
	rep := &Report{
		ID: "fig5", Title: "Accuracy with different aggregation periods (migration rounds + 1)",
		Header: []string{"agg period", "final acc", "best acc", "global traffic"},
		Notes:  []string{"paper shape: accuracy increases from agg2 to agg100 under non-IID data"},
	}
	epochs := p.scaleInt(40, 20)
	const seeds = 3
	for _, agg := range []int{2, 5, 10, 20} {
		var finalSum, bestSum float64
		var global int64
		for r := 0; r < seeds; r++ {
			o := baseOptions(p, fedmigr.SchemeFedMigr)
			o.Migrator = fedmigr.MigratorGreedyEMD
			o.Noise = 2.6
			o.AggEvery = agg
			o.Epochs = epochs
			o.EvalEvery = agg
			o.Seed = p.Seed + int64(r)
			res, err := fedmigr.Run(o)
			if err != nil {
				return nil, fmt.Errorf("fig5 agg=%d: %w", agg, err)
			}
			finalSum += res.FinalAcc
			bestSum += res.BestAcc()
			global += res.Snapshot.GlobalBytes
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("agg%d", agg), pct(finalSum / seeds), pct(bestSum / seeds),
			mb(global / seeds),
		})
	}
	return rep, nil
}

// fig6 reproduces Fig. 6: decision-making time of the convex-program
// baseline (S-COP — our projected-gradient FLMM relaxation) versus DRL
// model inference, as the client count grows from 10 to 100. Paper shape:
// S-COP time grows much faster than inference time.
type fig6 struct{}

func (fig6) ID() string { return "fig6" }
func (fig6) Title() string {
	return "Fig. 6 — decision time: S-COP vs DRL inference, 10→100 clients"
}

func (fig6) Run(p Params) (*Report, error) {
	p = p.withDefaults()
	rep := &Report{
		ID: "fig6", Title: "Migration decision latency by method",
		Header: []string{"clients", "S-COP", "DRL inference", "ratio"},
		Notes:  []string{"paper shape: S-COP latency grows much faster with scale than DRL inference"},
	}
	for _, k := range []int{10, 25, 50, 100} {
		// Build a representative state.
		g := tensor.NewRNG(p.Seed)
		util := make([][]float64, k)
		cost := make([][]float64, k)
		for i := 0; i < k; i++ {
			util[i] = make([]float64, k)
			cost[i] = make([]float64, k)
			for j := 0; j < k; j++ {
				if i != j {
					util[i][j] = 2 * g.Float64()
					cost[i][j] = 0.1 + g.Float64()
				}
			}
		}
		scop := timeIt(func() {
			prob := &qp.Problem{Utility: qp.BuildUtility(util, cost, 0.3, 1), Iters: 50}
			_ = qp.RoundArgmax(prob.Solve())
		})
		agent := drl.NewDDPG(drl.DDPGConfig{StateDim: drl.StateDim(k), ActionDim: k, Seed: p.Seed})
		state := make([]float64, drl.StateDim(k))
		for i := range state {
			state[i] = g.Float64()
		}
		inf := timeIt(func() { _ = agent.Act(state) })
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3fms", scop/1e6),
			fmt.Sprintf("%.3fms", inf/1e6),
			fmt.Sprintf("%.1fx", scop/inf),
		})
	}
	return rep, nil
}

// timeIt returns the wall time of one call of f in nanoseconds. Calls run
// in batches long enough to last at least a millisecond, so neither the
// clock's resolution nor one call's cold caches sets the figure, and the
// best of three batches wins (min over repeats damps scheduler noise on a
// busy core). Sizing the batch also warms f up.
func timeIt(f func()) float64 {
	batch := func(n int) time.Duration {
		start := time.Now()
		for range n {
			f()
		}
		return time.Since(start)
	}
	n := 1
	for batch(n) < time.Millisecond {
		n *= 2
	}
	best := math.Inf(1)
	for range 3 {
		best = min(best, float64(batch(n).Nanoseconds())/float64(n))
	}
	return best
}

// fig7 reproduces Fig. 7: epochs needed to reach a target accuracy for the
// five schemes on the test-bed workload. Paper shape:
// FedMigr < RandMigr < FedSwap < FedProx < FedAvg.
type fig7 struct{}

func (fig7) ID() string    { return "fig7" }
func (fig7) Title() string { return "Fig. 7 — epochs to target accuracy for all five schemes" }

func (fig7) Run(p Params) (*Report, error) {
	p = p.withDefaults()
	const target = 0.72
	rep := &Report{
		ID: "fig7", Title: fmt.Sprintf("Epochs to reach %.0f%% accuracy", target*100),
		Header: []string{"scheme", "epochs", "reached", "wall time"},
		Notes:  []string{"paper shape: FedMigr needs the fewest epochs, FedAvg the most"},
	}
	for _, s := range schemes {
		o := baseOptions(p, s)
		o.TargetAccuracy = target
		o.EvalEvery = 1
		o.Epochs = p.scaleInt(120, 30)
		if s == fedmigr.SchemeFedMigr {
			o.Migrator = fedmigr.MigratorGreedyEMD
		}
		res, err := fedmigr.Run(o)
		if err != nil {
			return nil, fmt.Errorf("fig7 %v: %w", s, err)
		}
		rep.Rows = append(rep.Rows, []string{
			s.String(), epochsStr(res.Epochs), fmt.Sprintf("%v", res.ReachedTarget),
			secs(res.Snapshot.WallSeconds),
		})
	}
	return rep, nil
}
