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
	dest, val, err := SolveRectAssignment(u)
	if err != nil {
		t.Fatal(err)
	}
	if dest[0] != 1 || dest[1] != 0 || math.Abs(val-17) > 1e-12 {
		t.Fatalf("dest %v val %v, want [1 0] 17", dest, val)
	}
	// Tall: 3 slots over 2 clients — one row must stay unassigned.
	u = [][]float64{
		{5, 1},
		{4, 4},
		{1, 6},
	}
	dest, val, err = SolveRectAssignment(u)
	if err != nil {
		t.Fatal(err)
	}
	if dest[0] != 0 || dest[1] != -1 || dest[2] != 1 || math.Abs(val-11) > 1e-12 {
		t.Fatalf("dest %v val %v, want [0 -1 1] 11", dest, val)
	}
}

// Property: for random small rectangles (including tall ones), the padded
// solver matches a brute-force search over every complete assignment of
// min(rows, cols) pairs, and the returned dest is injective with exactly
// min(rows, cols) real entries.
func TestRectAssignmentVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		rows := 1 + g.Intn(4)
		cols := 1 + g.Intn(5)
		u := make([][]float64, rows)
		for i := range u {
			u[i] = make([]float64, cols)
			for j := range u[i] {
				u[i][j] = g.NormFloat64() * 3
			}
		}
		dest, val, err := SolveRectAssignment(u)
		if err != nil {
			return false
		}
		assigned := 0
		seen := make([]bool, cols)
		for _, d := range dest {
			if d == -1 {
				continue
			}
			if d < 0 || d >= cols || seen[d] {
				return false
			}
			seen[d] = true
			assigned++
		}
		want := rows
		if cols < want {
			want = cols
		}
		if assigned != want {
			return false
		}
		return math.Abs(val-bruteForceRect(u)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceRect maximizes total utility over every injective assignment
// of exactly min(rows, cols) rows to distinct columns.
func bruteForceRect(u [][]float64) float64 {
	rows, cols := len(u), len(u[0])
	need := rows
	if cols < need {
		need = cols
	}
	used := make([]bool, cols)
	best := math.Inf(-1)
	var rec func(row, placed int, sum float64)
	rec = func(row, placed int, sum float64) {
		if placed == need {
			if sum > best {
				best = sum
			}
			return
		}
		if row == rows || rows-row < need-placed {
			return
		}
		rec(row+1, placed, sum) // leave this row unassigned
		for j := 0; j < cols; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			rec(row+1, placed+1, sum+u[row][j])
			used[j] = false
		}
	}
	rec(0, 0, 0)
	return best
}

func TestRectAssignmentErrors(t *testing.T) {
	if _, _, err := SolveRectAssignment(nil); err == nil {
		t.Fatal("empty instance must fail")
	}
	if _, _, err := SolveRectAssignment([][]float64{{}}); err == nil {
		t.Fatal("zero-column instance must fail")
	}
	if _, _, err := SolveRectAssignment([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged instance must fail")
	}
}

// BenchmarkRectAssignment is the allocator-shaped instance: a handful of
// job slots over a much larger client pool. It is the cost the fleet
// allocator pays per round on the exact (Hungarian) path, and the number
// that justifies the greedy fallback above FleetConfig.HungarianMax
// clients. Run it with `go test -bench RectAssignment ./internal/qp`.
func BenchmarkRectAssignment(b *testing.B) {
	for _, size := range []struct{ slots, clients int }{{16, 64}, {24, 256}, {48, 1000}} {
		b.Run(benchName(size.slots, size.clients), func(b *testing.B) {
			g := tensor.NewRNG(7)
			u := make([][]float64, size.slots)
			for i := range u {
				u[i] = make([]float64, size.clients)
				for j := range u[i] {
					u[i][j] = g.Float64()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := SolveRectAssignment(u); err != nil {
					b.Fatal(err)
				}
			}
		})
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
