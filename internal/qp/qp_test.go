package qp

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fedmigr/internal/tensor"
)

func TestProjectSimplexAlreadyFeasible(t *testing.T) {
	v := []float64{0.2, 0.3, 0.5}
	ProjectSimplex(v)
	want := []float64{0.2, 0.3, 0.5}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("feasible point moved: %v", v)
		}
	}
}

func TestProjectSimplexKnownCase(t *testing.T) {
	v := []float64{1, 1}
	ProjectSimplex(v)
	if math.Abs(v[0]-0.5) > 1e-12 || math.Abs(v[1]-0.5) > 1e-12 {
		t.Fatalf("got %v", v)
	}
	v2 := []float64{2, 0}
	ProjectSimplex(v2)
	if v2[0] != 1 || v2[1] != 0 {
		t.Fatalf("got %v", v2)
	}
}

// Property: projection output is always a valid distribution.
func TestProjectSimplexFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		n := 1 + g.Intn(10)
		v := make([]float64, n)
		for i := range v {
			v[i] = g.NormFloat64() * 3
		}
		ProjectSimplex(v)
		s := 0.0
		for _, x := range v {
			if x < -1e-12 {
				return false
			}
			s += x
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: projection is order-preserving (v_i ≥ v_j ⇒ proj_i ≥ proj_j).
func TestProjectSimplexOrderPreserving(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		n := 2 + g.Intn(8)
		v := make([]float64, n)
		for i := range v {
			v[i] = g.NormFloat64()
		}
		orig := append([]float64(nil), v...)
		ProjectSimplex(v)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if orig[i] >= orig[j] && v[i] < v[j]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refProjectSimplex is ProjectSimplex as it was, copying and sorting
// descending on every call: the reference TestProjectSimplexMatchesReference
// holds the scratch-row version to.
func refProjectSimplex(v []float64) {
	n := len(v)
	if n == 0 {
		return
	}
	u := append([]float64(nil), v...)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	css := 0.0
	rho, theta := -1, 0.0
	for i, ui := range u {
		css += ui
		t := (css - 1) / float64(i+1)
		if ui-t > 0 {
			rho, theta = i, t
		}
	}
	if rho < 0 {
		for i := range v {
			v[i] = 1 / float64(n)
		}
		return
	}
	for i, x := range v {
		x -= theta
		if x < 0 {
			x = 0
		}
		v[i] = x
	}
}

// TestProjectSimplexMatchesReference: over random rows, rows full of ties
// (±0 included) and all-zero rows, projectSimplex through one reused,
// stale scratch row gives the reference's bits, as does the exported
// wrapper.
func TestProjectSimplexMatchesReference(t *testing.T) {
	g := tensor.NewRNG(4)
	ties := []float64{-1, math.Copysign(0, -1), 0, 0.25, 0.5, 1, 2}
	var rows [][]float64
	for r := 0; r < 600; r++ {
		v := make([]float64, 1+g.Intn(12))
		for i := range v {
			switch r % 3 {
			case 0:
				v[i] = g.NormFloat64() * 3
			case 1:
				v[i] = ties[g.Intn(len(ties))]
			}
		}
		rows = append(rows, v)
	}
	rows = append(rows, []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}, []float64{0.5, 0.5, 0.5, 0.5})
	scratch := make([]float64, 12)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	for r, row := range rows {
		want := append([]float64(nil), row...)
		refProjectSimplex(want)
		got := append([]float64(nil), row...)
		projectSimplex(got, scratch)
		wrapped := append([]float64(nil), row...)
		ProjectSimplex(wrapped)
		for i := range want {
			w := math.Float64bits(want[i])
			if math.Float64bits(got[i]) != w || math.Float64bits(wrapped[i]) != w {
				t.Fatalf("row %d %v: entry %d = %v (wrapper %v), reference %v", r, row, i, got[i], wrapped[i], want[i])
			}
		}
	}
}

func TestSolveRowStochastic(t *testing.T) {
	g := tensor.NewRNG(1)
	k := 6
	u := make([][]float64, k)
	for i := range u {
		u[i] = make([]float64, k)
		for j := range u[i] {
			u[i][j] = g.NormFloat64()
		}
	}
	p := &Problem{Utility: u}
	P := p.Solve()
	for i, row := range P {
		s := 0.0
		for _, v := range row {
			if v < -1e-9 {
				t.Fatalf("negative probability row %d: %v", i, row)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSolvePrefersHighUtility(t *testing.T) {
	// Client 0 strongly prefers destination 2; solver should put most of
	// row 0's mass there.
	k := 4
	u := make([][]float64, k)
	for i := range u {
		u[i] = make([]float64, k)
	}
	u[0][2] = 5
	p := &Problem{Utility: u, Lambda: 0.01}
	P := p.Solve()
	if P[0][2] < 0.9 {
		t.Fatalf("row 0 mass on best destination only %v (row %v)", P[0][2], P[0])
	}
}

func TestSolveImprovesObjective(t *testing.T) {
	g := tensor.NewRNG(2)
	k := 5
	u := make([][]float64, k)
	for i := range u {
		u[i] = make([]float64, k)
		for j := range u[i] {
			u[i][j] = g.NormFloat64() * 2
		}
	}
	p := &Problem{Utility: u}
	uniform := make([][]float64, k)
	for i := range uniform {
		uniform[i] = make([]float64, k)
		for j := range uniform[i] {
			uniform[i][j] = 1 / float64(k)
		}
	}
	P := p.Solve()
	if p.Objective(P) < p.Objective(uniform)-1e-9 {
		t.Fatalf("solver worse than uniform start: %v < %v", p.Objective(P), p.Objective(uniform))
	}
}

func TestLoadPenaltySpreadsDestinations(t *testing.T) {
	// All clients prefer destination 0 equally; a strong load penalty
	// should spread mass over other destinations too.
	k := 5
	u := make([][]float64, k)
	for i := range u {
		u[i] = make([]float64, k)
		u[i][0] = 1
	}
	concentrated := (&Problem{Utility: u, Lambda: 1e-6}).Solve()
	spread := (&Problem{Utility: u, Lambda: 2}).Solve()
	loadC, loadS := 0.0, 0.0
	for i := 0; i < k; i++ {
		loadC += concentrated[i][0]
		loadS += spread[i][0]
	}
	if loadS >= loadC {
		t.Fatalf("load penalty did not spread: %v vs %v", loadS, loadC)
	}
}

func TestRoundArgmax(t *testing.T) {
	P := [][]float64{{0.1, 0.9}, {0.7, 0.3}}
	d := RoundArgmax(P)
	if d[0] != 1 || d[1] != 0 {
		t.Fatalf("got %v", d)
	}
}

func TestRoundSampleValid(t *testing.T) {
	g := tensor.NewRNG(3)
	P := [][]float64{{0.5, 0.5, 0}, {0, 0, 1}}
	for i := 0; i < 100; i++ {
		d := RoundSample(P, g)
		if d[0] < 0 || d[0] > 1 {
			t.Fatalf("sampled impossible destination %d", d[0])
		}
		if d[1] != 2 {
			t.Fatalf("deterministic row sampled %d", d[1])
		}
	}
}

func TestBuildUtility(t *testing.T) {
	d := [][]float64{{0, 2}, {2, 0}}
	cost := [][]float64{{0, 10}, {10, 0}}
	u := BuildUtility(d, cost, 0.5, 1)
	if u[0][0] != 0 {
		t.Fatalf("diagonal utility %v", u[0][0])
	}
	if math.Abs(u[0][1]-(2-0.5)) > 1e-12 {
		t.Fatalf("u[0][1]=%v", u[0][1])
	}
	// Shrinking the remaining budget raises cost pressure.
	u2 := BuildUtility(d, cost, 0.5, 0.25)
	if u2[0][1] >= u[0][1] {
		t.Fatalf("budget pressure did not increase: %v vs %v", u2[0][1], u[0][1])
	}
}

func TestValidate(t *testing.T) {
	if err := (&Problem{}).Validate(); err == nil {
		t.Fatal("empty problem must fail validation")
	}
	if err := (&Problem{Utility: [][]float64{{0, 1}}}).Validate(); err == nil {
		t.Fatal("ragged matrix must fail validation")
	}
	if err := (&Problem{Utility: [][]float64{{math.NaN()}}}).Validate(); err == nil {
		t.Fatal("NaN must fail validation")
	}
	if err := (&Problem{Utility: [][]float64{{0}}}).Validate(); err != nil {
		t.Fatal(err)
	}
}
