package core

import (
	"math"
	"testing"

	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/tensor"
)

// referenceParamSum is the buffered aggregation the trainer used before the
// streaming accumulator, kept verbatim as the bitwise reference: every
// scaled leaf is materialized at once, then each level of the fixed binary
// tree adds terms[i+span] into terms[i]. Peak live memory is
// O(len(ms) · params), which is what the streaming path avoids.
func referenceParamSum(pool *sched.Pool, ms []*nn.Sequential, ws []float64) *tensor.Tensor {
	terms := make([]*tensor.Tensor, len(ms))
	pool.ForEach("param_sum_leaves", len(ms), func(i int) {
		v := tensor.GetScratch(ms[i].NumParams())
		ms[i].ParamVectorInto(v)
		v.ScaleInPlace(ws[i])
		terms[i] = v
	})
	for span := 1; span < len(terms); span *= 2 {
		var pairs []int
		for i := 0; i+span < len(terms); i += 2 * span {
			pairs = append(pairs, i)
		}
		pool.ForEach("param_sum_level", len(pairs), func(j int) {
			i := pairs[j]
			terms[i].AddInPlace(terms[i+span])
			tensor.PutScratch(terms[i+span])
			terms[i+span] = nil
		})
	}
	if len(terms) == 0 {
		return nil
	}
	return terms[0]
}

// plantSpecials writes both NaN signs, both zeros, both infinities,
// subnormals and the largest finite values into every other parameter
// from position shift on, so specials meet ordinary values and each other
// in a sum whose models shift them by one each.
func plantSpecials(m *nn.Sequential, shift int) {
	specials := []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1040, math.MaxFloat64, -math.MaxFloat64,
	}
	v := m.ParamVector()
	for k, sp := range specials {
		v.Data()[(2*k+shift)%v.Size()] = sp
	}
	m.SetParamVector(v)
}

// TestStreamingParamSumMatchesReference holds streamingParamSum to the
// buffered reference bit for bit over real models: every slot count from 1
// to 17 (powers of two and not), unequal weights, specials planted in
// every third model (plantSpecials), the flat fold and the
// edge-aggregator groupings G ∈ {1, 4, 16} the trainer builds with
// Topology.AggregatorGroup. Models sit on scattered hosts, as after a
// migration, so a group's slots need not be contiguous.
func TestStreamingParamSumMatchesReference(t *testing.T) {
	pool := sched.New(4)
	defer pool.Close()
	for n := 1; n <= 17; n++ {
		ms := make([]*nn.Sequential, n)
		ws := make([]float64, n)
		total := 0.0
		for i := range ms {
			ms[i] = nn.NewMLP(tensor.NewRNG(int64(100+i)), 16, 24, 5)
			if i%3 == 0 {
				plantSpecials(ms[i], i/3)
			}
			ws[i] = float64(1 + (i*5)%7)
			total += ws[i]
		}
		for i := range ws {
			ws[i] /= total
		}
		want := referenceParamSum(pool, ms, ws)
		topo := edgenet.EvenTopology(n, 3)
		for _, g := range []int{0, 1, 4, 16} {
			var groupSlots [][]int
			if g > 0 {
				groupSlots = make([][]int, min(g, n))
				for slot := range ms {
					host := (slot*7 + 3) % n
					gid := topo.AggregatorGroup(host, g)
					groupSlots[gid] = append(groupSlots[gid], slot)
				}
			}
			got, _ := streamingParamSum(ms, ws, groupSlots)
			for j, w := range want.Data() {
				if math.Float64bits(got.Data()[j]) != math.Float64bits(w) {
					t.Fatalf("slots=%d G=%d: param %d is %v, reference %v", n, g, j, got.Data()[j], w)
				}
			}
			tensor.PutScratch(got)
		}
		tensor.PutScratch(want)
	}
}
