package qp

import (
	"math"
	"testing"
	"testing/quick"

	"fedmigr/internal/tensor"
)

// assignmentValue evaluates a destination vector against a utility matrix.
func assignmentValue(utility [][]float64, dest []int) float64 {
	total := 0.0
	for i, j := range dest {
		if j >= 0 && j < len(utility[i]) {
			total += utility[i][j]
		}
	}
	return total
}

func TestHungarianKnownCase(t *testing.T) {
	u := [][]float64{
		{9, 2, 7},
		{6, 4, 3},
		{5, 8, 1},
	}
	dest, val, err := SolveAssignment(u)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: 0→2 (7), 1→0 (6), 2→1 (8) = 21.
	if math.Abs(val-21) > 1e-12 {
		t.Fatalf("value %v want 21 (dest %v)", val, dest)
	}
	if dest[0] != 2 || dest[1] != 0 || dest[2] != 1 {
		t.Fatalf("dest %v", dest)
	}
}

func TestHungarianIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		n := 2 + g.Intn(8)
		u := make([][]float64, n)
		for i := range u {
			u[i] = make([]float64, n)
			for j := range u[i] {
				u[i][j] = g.NormFloat64()
			}
		}
		dest, val, err := SolveAssignment(u)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, d := range dest {
			if d < 0 || d >= n || seen[d] {
				return false
			}
			seen[d] = true
		}
		return math.Abs(val-assignmentValue(u, dest)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exact assignment dominates any other permutation —
// verified by brute force for n ≤ 5.
func TestHungarianOptimalVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		n := 2 + g.Intn(4)
		u := make([][]float64, n)
		for i := range u {
			u[i] = make([]float64, n)
			for j := range u[i] {
				u[i][j] = g.NormFloat64() * 3
			}
		}
		_, val, err := SolveAssignment(u)
		if err != nil {
			return false
		}
		best := bruteForce(u)
		return math.Abs(val-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func bruteForce(u [][]float64) float64 {
	n := len(u)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(-1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			v := 0.0
			for i, j := range perm {
				v += u[i][j]
			}
			if v > best {
				best = v
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// The relaxed projected-gradient solver with argmax rounding should land
// within a reasonable factor of the exact assignment on random instances.
func TestRelaxationApproximatesExact(t *testing.T) {
	g := tensor.NewRNG(5)
	trials, ok := 0, 0
	for trial := 0; trial < 20; trial++ {
		n := 4 + g.Intn(5)
		u := make([][]float64, n)
		for i := range u {
			u[i] = make([]float64, n)
			for j := range u[i] {
				u[i][j] = g.Float64() * 2 // non-negative utilities
			}
		}
		_, exact, err := SolveAssignment(u)
		if err != nil {
			t.Fatal(err)
		}
		p := &Problem{Utility: u, Lambda: 1, Iters: 100}
		approx := assignmentValue(u, RoundArgmax(p.Solve()))
		trials++
		if approx >= 0.6*exact {
			ok++
		}
	}
	if ok < trials*3/4 {
		t.Fatalf("relaxation within 60%% of exact on only %d/%d instances", ok, trials)
	}
}

func TestHungarianErrors(t *testing.T) {
	if _, _, err := SolveAssignment(nil); err == nil {
		t.Fatal("empty instance must fail")
	}
	if _, _, err := SolveAssignment([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged instance must fail")
	}
	if _, _, err := SolveAssignment([][]float64{{1}, {2}}); err == nil {
		t.Fatal("tall instance must fail")
	}
}
