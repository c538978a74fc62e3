package qp

import (
	"fmt"
	"math"
)

// SolveAssignment computes an exact maximum-utility assignment for an
// instance with no more rows than columns: utility[i][j] is the value of
// giving row i (a model, or a job slot) column j (a destination, or a
// client). Every row gets a distinct column, maximizing the total utility;
// dest[i] is row i's column and total is summed in row order. A square
// instance is the paper's one-destination-per-model decision; a wide one is
// the fleet's per-round slot allocation. An instance with more rows than
// columns has no complete assignment and is rejected.
//
// The solver is the shortest-augmenting-path Hungarian algorithm with row
// and column potentials: each row in turn is added along a cheapest
// augmenting path over the columns, so the cost is O(rows²·cols) however
// wide the instance. It is the exact counterpart of the relaxed FLMM
// solver: Solve+Round approximates it under capacity-1 semantics, and the
// tests bound the approximation gap. The relaxation exists because the
// *general* FLMM with budgets is NP-hard (Sec. II-D).
func SolveAssignment(utility [][]float64) ([]int, float64, error) {
	rows := len(utility)
	if rows == 0 {
		return nil, 0, fmt.Errorf("qp: empty assignment instance")
	}
	cols := len(utility[0])
	for i, row := range utility {
		if len(row) != cols {
			return nil, 0, fmt.Errorf("qp: utility row %d has %d entries, want %d", i, len(row), cols)
		}
	}
	if rows > cols {
		return nil, 0, fmt.Errorf("qp: assignment instance has %d rows but only %d columns", rows, cols)
	}
	// Min-cost form over cost = -utility. Rows and columns are 1-based;
	// column 0 is the virtual root each augmenting search starts from.
	const inf = math.MaxFloat64 / 4
	u := make([]float64, rows+1)
	v := make([]float64, cols+1)
	p := make([]int, cols+1) // p[j] = row assigned to column j, 0 if free
	way := make([]int, cols+1)
	minv := make([]float64, cols+1)
	used := make([]bool, cols+1)
	for i := 1; i <= rows; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			ui0, urow := u[i0], utility[i0-1]
			delta := inf
			j1 := 0
			for j := 1; j <= cols; j++ {
				if used[j] {
					continue
				}
				cur := -urow[j-1] - ui0 - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= cols; j++ {
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
	dest := make([]int, rows)
	for j := 1; j <= cols; j++ {
		if p[j] > 0 {
			dest[p[j]-1] = j - 1
		}
	}
	total := 0.0
	for i, j := range dest {
		total += utility[i][j]
	}
	return dest, total, nil
}
