package agg

import (
	"fmt"
	"math"
	"testing"

	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// splitmix is a tiny deterministic generator for test shuffles (the
// global math/rand stream is banned in this zone).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func testVec(slot, dim int) []float64 {
	v := make([]float64, dim)
	for j := range v {
		v[j] = math.Sin(float64(slot*131 + j))
	}
	return v
}

func testWeight(slot int) float64 { return 1 + float64(slot%7)/3 }

// refTree replicates the fixed pairwise reduction over plain slices — the
// bit-exact reference the streaming path must match.
func refTree(slots, dim int, members []int) []float64 {
	present := make([]bool, slots)
	for _, m := range members {
		present[m] = true
	}
	terms := make([][]float64, 0, len(members))
	order := make([]int, 0, len(members))
	for s := 0; s < slots; s++ {
		if !present[s] {
			continue
		}
		cp := testVec(s, dim)
		w := testWeight(s)
		for j := range cp {
			cp[j] *= w
		}
		terms = append(terms, cp)
		order = append(order, s)
	}
	_ = order
	for span := 1; span < len(terms); span *= 2 {
		for i := 0; i+span < len(terms); i += 2 * span {
			for j := range terms[i] {
				terms[i][j] += terms[i+span][j]
			}
		}
	}
	if len(terms) == 0 {
		return nil
	}
	return terms[0]
}

func finishBits(t *testing.T, a *Accumulator, norm float64) []float64 {
	t.Helper()
	out := a.Finish(norm)
	if out == nil {
		t.Fatal("Finish returned nil")
	}
	bits := append([]float64(nil), out.Data()...)
	tensor.PutScratch(out)
	if a.Live() != 0 {
		t.Fatalf("accumulator still holds %d buffers after Finish", a.Live())
	}
	return bits
}

func addAll(t *testing.T, a *Accumulator, order []int) {
	t.Helper()
	for _, s := range order {
		if err := a.Add(s, testVec(s, a.Dim()), testWeight(s)); err != nil {
			t.Fatalf("Add(%d): %v", s, err)
		}
	}
}

// Full arrival must be bit-identical to the buffered fixed tree for every
// slot count and every arrival order.
func TestStreamingMatchesBufferedTree(t *testing.T) {
	rng := splitmix(42)
	const dim = 33
	for _, slots := range []int{1, 2, 3, 5, 8, 13, 31, 64, 100} {
		all := make([]int, slots)
		for i := range all {
			all[i] = i
		}
		want := refTree(slots, dim, all)
		for trial := 0; trial < 4; trial++ {
			a := New(slots, dim)
			addAll(t, a, rng.perm(slots))
			got := finishBits(t, a, 1)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("slots=%d trial=%d: bit mismatch at %d: %g vs %g",
						slots, trial, j, got[j], want[j])
				}
			}
		}
	}
}

// A partial arrival must be a pure function of the arrived slot set:
// every arrival order yields the same bits, and the weight normalizer
// recovers the weighted mean of exactly the arrived members.
func TestPartialArrivalIsSetDeterministic(t *testing.T) {
	rng := splitmix(7)
	const slots, dim = 21, 17
	members := []int{0, 2, 3, 4, 9, 12, 13, 14, 15, 20}
	base := New(slots, dim)
	addAll(t, base, members)
	wsum := base.Weight()
	want := finishBits(t, base, 1/wsum)
	for trial := 0; trial < 6; trial++ {
		order := append([]int(nil), members...)
		p := rng.perm(len(order))
		shuffled := make([]int, len(order))
		for i, j := range p {
			shuffled[i] = order[j]
		}
		a := New(slots, dim)
		addAll(t, a, shuffled)
		got := finishBits(t, a, 1/a.Weight())
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: arrival order changed bits at %d", trial, j)
			}
		}
	}
	// Sanity: the normalized result is the weighted mean of the members.
	var swsum float64
	mean := make([]float64, dim)
	for _, m := range members {
		w := testWeight(m)
		swsum += w
		for j, x := range testVec(m, dim) {
			mean[j] += w * x
		}
	}
	for j := range mean {
		mean[j] /= swsum
		if math.Abs(mean[j]-want[j]) > 1e-12 {
			t.Fatalf("normalized value off at %d: %g vs %g", j, want[j], mean[j])
		}
	}
}

// Hierarchical Drain/Fold through child accumulators must reproduce the
// flat result bit-for-bit for any grouping of slots and any fold order.
func TestHierarchicalFoldMatchesFlat(t *testing.T) {
	rng := splitmix(99)
	const slots, dim = 29, 25
	all := make([]int, slots)
	for i := range all {
		all[i] = i
	}
	flat := New(slots, dim)
	addAll(t, flat, all)
	want := finishBits(t, flat, 1)
	for _, fanout := range []int{1, 2, 4, 7, 16} {
		for _, interleave := range []bool{false, true} {
			children := make([]*Accumulator, fanout)
			for g := range children {
				children[g] = New(slots, dim)
			}
			for _, s := range rng.perm(slots) {
				g := s * fanout / slots // contiguous blocks
				if interleave {
					g = s % fanout
				}
				if err := children[g].Add(s, testVec(s, dim), testWeight(s)); err != nil {
					t.Fatal(err)
				}
			}
			root := New(slots, dim)
			for _, g := range rng.perm(fanout) {
				for _, nd := range children[g].Drain() {
					if err := root.FoldNode(nd); err != nil {
						t.Fatalf("fanout=%d interleave=%v: %v", fanout, interleave, err)
					}
				}
			}
			if root.Count() != slots {
				t.Fatalf("root saw %d of %d leaves", root.Count(), slots)
			}
			got := finishBits(t, root, 1)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("fanout=%d interleave=%v: hierarchical bits differ at %d",
						fanout, interleave, j)
				}
			}
		}
	}
}

// Fold of a serialized node (the wire path) matches FoldNode.
func TestFoldCopiesWirePayload(t *testing.T) {
	const slots, dim = 8, 9
	child := New(slots, dim)
	addAll(t, child, []int{4, 5, 6, 7})
	nodes := child.Drain()
	if len(nodes) != 1 {
		t.Fatalf("contiguous half drained as %d nodes, want 1", len(nodes))
	}
	root := New(slots, dim)
	nd := nodes[0]
	payload := append([]float64(nil), nd.Vec.Data()...)
	if err := root.Fold(nd.Start, nd.Level, nd.Count, nd.Weight, payload); err != nil {
		t.Fatal(err)
	}
	Release(nd)
	addAll(t, root, []int{0, 1, 2, 3})
	got := finishBits(t, root, 1)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	flat := New(slots, dim)
	addAll(t, flat, all)
	want := finishBits(t, flat, 1)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("wire fold differs at %d", j)
		}
	}
}

func TestRejectsDuplicatesAndBadNodes(t *testing.T) {
	a := New(8, 4)
	if err := a.Add(3, testVec(3, 4), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(3, testVec(3, 4), 1); err == nil {
		t.Fatal("duplicate slot accepted")
	}
	if err := a.Add(8, testVec(8, 4), 1); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if err := a.Add(0, make([]float64, 5), 1); err == nil {
		t.Fatal("wrong-dim upload accepted")
	}
	if err := a.Fold(1, 1, 2, 1, make([]float64, 4)); err == nil {
		t.Fatal("misaligned node accepted")
	}
	if err := a.Fold(4, 1, 1, 1, make([]float64, 4)); err == nil {
		t.Fatal("incomplete node accepted")
	}
	if err := a.Fold(4, 1, 2, 1, make([]float64, 4)); err != nil {
		t.Fatalf("valid node rejected: %v", err)
	}
	if err := a.Fold(4, 1, 2, 1, make([]float64, 4)); err == nil {
		t.Fatal("overlapping node accepted")
	}
	if a.Count() != 3 {
		t.Fatalf("count = %d, want 3", a.Count())
	}
	out := a.Finish(1)
	tensor.PutScratch(out)
}

// In-order arrival keeps the live-buffer frontier logarithmic — the
// memory-model claim behind the 100k-client smoke run.
func TestPeakLiveLogarithmicInOrder(t *testing.T) {
	const slots, dim = 1024, 8
	a := New(slots, dim)
	for s := 0; s < slots; s++ {
		if err := a.Add(s, testVec(s, dim), 1); err != nil {
			t.Fatal(err)
		}
	}
	if bound := 12; a.PeakLive() > bound {
		t.Fatalf("peak live buffers %d exceeds log bound %d", a.PeakLive(), bound)
	}
	out := a.Finish(1 / a.Weight())
	tensor.PutScratch(out)
}

func TestNodeCountMatchesDrain(t *testing.T) {
	rng := splitmix(5)
	const slots, dim = 37, 3
	for trial := 0; trial < 20; trial++ {
		perm := rng.perm(slots)
		members := perm[:1+int(rng.next()%uint64(slots))]
		a := New(slots, dim)
		addAll(t, a, members)
		nodes := a.Drain()
		if got, want := NodeCount(slots, members), len(nodes); got != want {
			t.Fatalf("trial %d: NodeCount=%d but Drain produced %d nodes", trial, got, want)
		}
		for _, nd := range nodes {
			Release(nd)
		}
	}
}

// refAddLeaf is AddLeaf as it was before the one-pass fold: a leaf is
// scaled in its own pass, then sift merges it into its siblings. With
// Leaf and nn.ParamVectorInto in front of it, it is the reference the
// one-pass fold is held to.
func refAddLeaf(a *Accumulator, slot int, v *tensor.Tensor, weight float64) {
	if a.arrived[slot] {
		panic("refAddLeaf: duplicate slot")
	}
	a.arrived[slot] = true
	a.count++
	v.ScaleInPlace(weight)
	a.hold(1)
	a.sift(&node{start: slot, level: 0, count: 1, weight: weight, vec: v})
}

// specials are planted in parameters: both NaN signs, both zeros, both
// infinities, subnormals and the largest finite values.
var specials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001), 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, math.MaxFloat64, -math.MaxFloat64,
}

// foldWeights cycles through the weights the fold must scale by exactly:
// zero, one, negative, subnormal and ordinary ones.
var foldWeights = []float64{0.3, 1, -0.75, 0, math.SmallestNonzeroFloat64, 2.5, -0x1p-1050}

// foldModels builds n small MLPs; every third one carries the specials at
// every other position, shifted by one per carrier, so specials meet
// ordinary values and each other (NaN and −NaN, +Inf and −Inf) in the sums.
func foldModels(n int) []*nn.Sequential {
	ms := make([]*nn.Sequential, n)
	for i := range ms {
		ms[i] = nn.NewMLP(tensor.NewRNG(int64(300+i)), 4, 5, 3)
		if i%3 != 0 {
			continue
		}
		v := ms[i].ParamVector()
		for k, sp := range specials {
			v.Data()[(2*k+i/3)%v.Size()] = sp
		}
		ms[i].SetParamVector(v)
	}
	return ms
}

// refFold folds the models in order through Leaf, ParamVectorInto and
// refAddLeaf, and returns the weight and the finished sum.
func refFold(ms []*nn.Sequential, order []int) (float64, []float64) {
	a := New(len(ms), ms[0].NumParams())
	for _, s := range order {
		leaf := a.Leaf()
		ms[s].ParamVectorInto(leaf)
		refAddLeaf(a, s, leaf, foldWeights[s%len(foldWeights)])
	}
	w := a.Weight()
	out := a.Finish(1)
	sum := append([]float64(nil), out.Data()...)
	tensor.PutScratch(out)
	return w, sum
}

// foldVia folds model s into a through one of the three entry points:
// AddParams (in place), AddLeaf (a filled Leaf) or Add (a caller slice).
func foldVia(t *testing.T, a *Accumulator, ms []*nn.Sequential, s, via int) {
	t.Helper()
	w := foldWeights[s%len(foldWeights)]
	var err error
	switch via % 3 {
	case 0:
		ps, _ := ms[s].Params()
		err = a.AddParams(s, ps, w)
	case 1:
		leaf := a.Leaf()
		ms[s].ParamVectorInto(leaf)
		err = a.AddLeaf(s, leaf, w)
	default:
		err = a.Add(s, ms[s].ParamVector().Data(), w)
	}
	if err != nil {
		t.Fatalf("fold slot %d via %d: %v", s, via%3, err)
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestOnePassFoldMatchesReference holds the one-pass fold (AddParams, and
// AddLeaf and Add, which share it) to the scale-then-sift reference bit
// for bit: slot counts 1–17, every arrival order up to 5 slots and seeded
// shuffles above, full and half arrivals, weights 0, 1, negative and
// subnormal, specials planted in the parameters, each entry point alone
// and mixed, and the same slots grouped onto child accumulators whose
// drained nodes FoldNode into a root.
func TestOnePassFoldMatchesReference(t *testing.T) {
	rng := splitmix(54)
	for n := 1; n <= 17; n++ {
		ms := foldModels(n)
		var orders [][]int
		if n <= 5 {
			orders = permutations(n)
		} else {
			for i := 0; i < 8; i++ {
				orders = append(orders, rng.perm(n))
			}
		}
		for oi, order := range orders {
			for _, k := range []int{(n + 1) / 2, n} {
				arrived := order[:k]
				wantW, want := refFold(ms, arrived)
				for via := 0; via < 4; via++ { // 0–2: one entry point; 3: mixed
					a := New(n, ms[0].NumParams())
					for i, s := range arrived {
						v := via
						if via == 3 {
							v = i
						}
						foldVia(t, a, ms, s, v)
					}
					if w := a.Weight(); math.Float64bits(w) != math.Float64bits(wantW) {
						t.Fatalf("n=%d order %v[:%d] via %d: weight %v, reference %v", n, order, k, via, w, wantW)
					}
					requireSameBits(t, fmt.Sprintf("n=%d order %v[:%d] via %d", n, order, k, via), finishBits(t, a, 1), want)
				}
				for _, groups := range []int{2, 3} {
					root := New(n, ms[0].NumParams())
					for g := 0; g < groups; g++ {
						child := New(n, ms[0].NumParams())
						for i, s := range arrived {
							if s%groups == g {
								foldVia(t, child, ms, s, i)
							}
						}
						for _, nd := range child.Drain() {
							if err := root.FoldNode(nd); err != nil {
								t.Fatal(err)
							}
						}
					}
					if root.Count() == 0 {
						continue
					}
					requireSameBits(t, fmt.Sprintf("n=%d order %d[:%d] groups %d", n, oi, k, groups), finishBits(t, root, 1), want)
				}
			}
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestOnePassFoldReleasesLeaves: a leaf folded straight into its sibling
// holds no buffer of its own, so in-order arrival through AddParams needs
// no more live buffers than the reference, and AddLeaf's fused path and
// its error paths give every leaf buffer back.
func TestOnePassFoldReleasesLeaves(t *testing.T) {
	ms := foldModels(16)
	dim := ms[0].NumParams()
	ref := New(16, dim)
	a := New(16, dim)
	for s := range ms {
		leaf := ref.Leaf()
		ms[s].ParamVectorInto(leaf)
		refAddLeaf(ref, s, leaf, 1)
		foldVia(t, a, ms, s, 0)
	}
	if a.PeakLive() > ref.PeakLive() {
		t.Fatalf("one-pass fold peaked at %d live buffers, reference %d", a.PeakLive(), ref.PeakLive())
	}
	tensor.PutScratch(ref.Finish(1))
	tensor.PutScratch(a.Finish(1))
	b := New(4, dim)
	if err := b.AddLeaf(1, b.Leaf(), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLeaf(0, b.Leaf(), 1); err != nil { // fuses into slot 1's buffer
		t.Fatal(err)
	}
	if b.Live() != 1 {
		t.Fatalf("after a fused AddLeaf the accumulator holds %d buffers, want 1", b.Live())
	}
	if err := b.AddLeaf(0, b.Leaf(), 1); err == nil {
		t.Fatal("duplicate AddLeaf accepted")
	}
	if err := b.AddLeaf(2, tensor.GetScratch(dim+1), 1); err == nil {
		t.Fatal("wrong-dim AddLeaf accepted")
	}
	if err := b.AddLeaf(2, nil, 1); err == nil {
		t.Fatal("nil AddLeaf accepted")
	}
	ps, _ := ms[0].Params()
	if err := b.AddParams(2, ps[1:], 1); err == nil {
		t.Fatal("short AddParams accepted")
	}
	if b.Count() != 2 || b.Arrived(2) {
		t.Fatalf("rejected uploads changed the accumulator: count %d", b.Count())
	}
	tensor.PutScratch(b.Finish(1))
}
