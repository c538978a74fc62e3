package qp

import (
	"fmt"
	"math"
)

// SolveAssignment computes an exact maximum-utility one-to-one assignment
// (each model to a distinct destination) with the Hungarian algorithm in
// O(K³). It is the exact counterpart of the relaxed FLMM solver: Solve+
// Round approximates it under capacity-1 semantics, and the tests bound
// the approximation gap. For the paper's problem sizes (K ≤ 100) the exact
// solver is still fast; the relaxation exists because the *general* FLMM
// with budgets is NP-hard (Sec. II-D).
func SolveAssignment(utility [][]float64) ([]int, float64, error) {
	n := len(utility)
	if n == 0 {
		return nil, 0, fmt.Errorf("qp: empty assignment instance")
	}
	for i, row := range utility {
		if len(row) != n {
			return nil, 0, fmt.Errorf("qp: utility row %d has %d entries, want %d", i, len(row), n)
		}
	}
	// Hungarian algorithm solves min-cost; negate utilities.
	const inf = math.MaxFloat64 / 4
	cost := make([][]float64, n+1)
	for i := 1; i <= n; i++ {
		cost[i] = make([]float64, n+1)
		for j := 1; j <= n; j++ {
			cost[i][j] = -utility[i-1][j-1]
		}
	}

	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row assigned to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0][j] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	dest := make([]int, n)
	total := 0.0
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			dest[p[j]-1] = j - 1
			total += utility[p[j]-1][j-1]
		}
	}
	return dest, total, nil
}
