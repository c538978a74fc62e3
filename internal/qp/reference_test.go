package qp

import (
	"fmt"
	"math"
	"testing"

	"fedmigr/internal/tensor"
)

// The references below are the assignment solvers as they were before the
// rectangular case stopped padding to square: refSquareAssignment is the
// square O(n³) Hungarian solver, refPaddedAssignment the zero-padding
// reduction onto it. Their code is kept verbatim apart from the names.

// refSquareAssignment computes an exact maximum-utility one-to-one assignment
// (each model to a distinct destination) with the Hungarian algorithm in
// O(K³). It is the exact counterpart of the relaxed FLMM solver: Solve+
// Round approximates it under capacity-1 semantics, and the tests bound
// the approximation gap. For the paper's problem sizes (K ≤ 100) the exact
// solver is still fast; the relaxation exists because the *general* FLMM
// with budgets is NP-hard (Sec. II-D).
func refSquareAssignment(utility [][]float64) ([]int, float64, error) {
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

// refPaddedAssignment computes an exact maximum-utility assignment for a
// rectangular instance: utility[i][j] is the value of giving row i (a job
// slot) column j (a client). Exactly min(rows, cols) pairs are formed —
// every row when rows ≤ cols, every column when cols ≤ rows — maximizing
// the total utility among all such complete assignments. The returned
// dest has one entry per row; dest[i] == -1 marks a row left unassigned
// (only possible when rows > cols).
//
// The rectangle is reduced to the square Hungarian solver by padding the
// short side with zero-utility phantoms: a phantom column absorbs an
// unassigned row, a phantom row absorbs an unused column, and neither
// contributes value, so the padded optimum restricted to real entries is
// the rectangular optimum. Cost is O(max(rows, cols)³) — the fleet
// allocator switches to its greedy fallback above a configurable fleet
// size rather than pay this cubic on tens of thousands of clients.
func refPaddedAssignment(utility [][]float64) ([]int, float64, error) {
	rows := len(utility)
	if rows == 0 {
		return nil, 0, fmt.Errorf("qp: empty assignment instance")
	}
	cols := len(utility[0])
	if cols == 0 {
		return nil, 0, fmt.Errorf("qp: assignment instance with no columns")
	}
	for i, row := range utility {
		if len(row) != cols {
			return nil, 0, fmt.Errorf("qp: utility row %d has %d entries, want %d", i, len(row), cols)
		}
	}
	n := rows
	if cols > n {
		n = cols
	}
	padded := make([][]float64, n)
	for i := range padded {
		padded[i] = make([]float64, n)
		if i < rows {
			copy(padded[i], utility[i])
		}
	}
	dest, _, err := refSquareAssignment(padded)
	if err != nil {
		return nil, 0, err
	}
	out := make([]int, rows)
	total := 0.0
	for i := 0; i < rows; i++ {
		if dest[i] >= cols {
			out[i] = -1 // phantom column: row left unassigned
			continue
		}
		out[i] = dest[i]
		total += utility[i][dest[i]]
	}
	return out, total, nil
}

// TestAssignmentMatchesReference pins SolveAssignment to the solvers it
// replaces: on seeded square and wide instances — real-valued, integer
// valued with many ties, each with or without 30 % of entries forbidden at
// -1e18 (the fleet allocator's marker) — dest is identical to the padded
// reference's and total is bitwise equal; square instances also match the
// old square solver's dest.
func TestAssignmentMatchesReference(t *testing.T) {
	const trials = 2400
	for trial := 0; trial < trials; trial++ {
		g := tensor.NewRNG(int64(trial))
		rows := 1 + g.Intn(12)
		cols := rows
		if trial%2 == 1 {
			cols += 1 + g.Intn(24)
		}
		ties := trial%4 >= 2
		forbid := trial%8 >= 4
		u := make([][]float64, rows)
		for i := range u {
			u[i] = make([]float64, cols)
			for j := range u[i] {
				switch {
				case forbid && g.Float64() < 0.3:
					u[i][j] = -1e18
				case ties:
					u[i][j] = float64(g.Intn(4))
				default:
					u[i][j] = g.NormFloat64() * 3
				}
			}
		}
		name := fmt.Sprintf("trial %d (%dx%d ties=%v forbid=%v)", trial, rows, cols, ties, forbid)
		dest, total, err := SolveAssignment(u)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantDest, wantTotal, err := refPaddedAssignment(u)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for i := range wantDest {
			if dest[i] != wantDest[i] {
				t.Fatalf("%s: dest %v, reference %v", name, dest, wantDest)
			}
		}
		if math.Float64bits(total) != math.Float64bits(wantTotal) {
			t.Fatalf("%s: total %v, reference %v", name, total, wantTotal)
		}
		if rows == cols {
			sq, _, err := refSquareAssignment(u)
			if err != nil {
				t.Fatalf("%s: square reference: %v", name, err)
			}
			for i := range sq {
				if dest[i] != sq[i] {
					t.Fatalf("%s: dest %v, square reference %v", name, dest, sq)
				}
			}
		}
	}
}
