package qp

import (
	"math"
	"testing"
	"testing/quick"

	"fedmigr/internal/tensor"
)

func TestRectAssignmentKnownCases(t *testing.T) {
	// Wide: 2 slots over 4 clients — both rows assigned, best columns win.
	u := [][]float64{
		{1, 9, 2, 3},
		{8, 7, 1, 1},
	}
	dest, val, err := SolveAssignment(u)
	if err != nil {
		t.Fatal(err)
	}
	if dest[0] != 1 || dest[1] != 0 || math.Abs(val-17) > 1e-12 {
		t.Fatalf("dest %v val %v, want [1 0] 17", dest, val)
	}
}

// Property: for random small rectangles with rows ≤ cols, the solver
// matches a brute-force search over every complete assignment of the rows,
// and the returned dest is injective and assigns every row.
func TestRectAssignmentVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		rows := 1 + g.Intn(4)
		cols := rows + g.Intn(3)
		u := make([][]float64, rows)
		for i := range u {
			u[i] = make([]float64, cols)
			for j := range u[i] {
				u[i][j] = g.NormFloat64() * 3
			}
		}
		dest, val, err := SolveAssignment(u)
		if err != nil {
			return false
		}
		if len(dest) != rows {
			return false
		}
		seen := make([]bool, cols)
		for _, d := range dest {
			if d < 0 || d >= cols || seen[d] {
				return false
			}
			seen[d] = true
		}
		return math.Abs(val-bruteForceRect(u)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceRect maximizes total utility over every injective assignment
// of the rows to distinct columns.
func bruteForceRect(u [][]float64) float64 {
	rows, cols := len(u), len(u[0])
	used := make([]bool, cols)
	best := math.Inf(-1)
	var rec func(row int, sum float64)
	rec = func(row int, sum float64) {
		if row == rows {
			if sum > best {
				best = sum
			}
			return
		}
		for j := 0; j < cols; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			rec(row+1, sum+u[row][j])
			used[j] = false
		}
	}
	rec(0, 0)
	return best
}

func TestRectAssignmentErrors(t *testing.T) {
	if _, _, err := SolveAssignment(nil); err == nil {
		t.Fatal("empty instance must fail")
	}
	if _, _, err := SolveAssignment([][]float64{{}}); err == nil {
		t.Fatal("zero-column instance must fail")
	}
	if _, _, err := SolveAssignment([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged instance must fail")
	}
}

// BenchmarkRectAssignment times the fleet allocator's instance shape: a
// handful of job slots over a much larger client pool, up to a
// 100 000-client fleet. It runs two utility shapes. "independent" draws
// every entry uniformly, so a row's best column is rarely taken and each
// augmenting search stops after about one step: the O(rows·cols) best
// case. "shared" is what fleet.allocate builds when clients differ in
// cost: every slot ranks clients by one shared cost plus a 1e-6 per-slot
// jitter, so row k's search passes the k−1 taken columns before it finds
// a free one: the O(rows²·cols) worst case. Run it with
// `go test -bench RectAssignment ./internal/qp`.
func BenchmarkRectAssignment(b *testing.B) {
	for _, shape := range []string{"independent", "shared"} {
		for _, size := range []struct{ slots, clients int }{{16, 64}, {24, 256}, {48, 1000}, {64, 1000}, {64, 100000}} {
			b.Run(shape+"/"+benchName(size.slots, size.clients), func(b *testing.B) {
				g := tensor.NewRNG(7)
				cost := make([]float64, size.clients)
				for j := range cost {
					cost[j] = g.Float64()
				}
				u := make([][]float64, size.slots)
				for i := range u {
					u[i] = make([]float64, size.clients)
					for j := range u[i] {
						if shape == "shared" {
							u[i][j] = -cost[j] + 1e-6*g.Float64()
						} else {
							u[i][j] = g.Float64()
						}
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := SolveAssignment(u); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchName(slots, clients int) string {
	return "slots=" + itoa(slots) + "/clients=" + itoa(clients)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
