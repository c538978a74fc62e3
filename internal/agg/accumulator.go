// Package agg is the streaming weighted-sum reducer at the heart of the
// hierarchical aggregation path (DESIGN.md §5b). An Accumulator folds each
// model upload into running partial sums the moment it arrives, so neither
// the simulator, the cloud server, nor an edge aggregator ever buffers
// O(clients) parameter vectors — live scratch is bounded by the unmerged
// frontier of a fixed reduction tree (O(log slots) for in-order arrival).
//
// Each upload is read once: AddParams reads a model's parameter tensors in
// place, and a leaf whose sibling subtree is complete is scaled as it is
// added into the sibling's buffer; only a leaf that must wait is written,
// scaled, into scratch of its own.
//
// Determinism contract: the reduction tree has a fixed shape determined
// only by the slot count — the pairwise tree that adds terms[i+span] into
// terms[i] for span = 1, 2, 4, …. Every upload folds at its deterministic
// slot index, merges fire exactly when both siblings are complete, and
// residual partial sums are folded in ascending slot order by Finish. The
// final vector is therefore a pure function of the *set* of arrived slots:
// bit-identical across arrival orders, worker counts, and any grouping of
// slots onto edge aggregators (Drain/Fold ship the same tree nodes a flat
// reduction would have built internally).
package agg

import (
	"fmt"
	"sort"

	"fedmigr/internal/tensor"
)

// node is one resident partial sum: a complete subtree of the reduction
// tree covering slots [start, min(start+2^level, slots)).
type node struct {
	start, level, count int
	weight              float64
	vec                 *tensor.Tensor
}

// Node is the exported form of a resident partial sum, produced by Drain
// on an edge aggregator and consumed by Fold/FoldNode on its parent. Vec
// is arena scratch owned by the holder; Release returns it.
type Node struct {
	Start, Level, Count int
	Weight              float64
	Vec                 *tensor.Tensor
}

// Release recycles a drained node's buffer back to the arena.
func Release(n Node) {
	if n.Vec != nil {
		tensor.PutScratch(n.Vec)
	}
}

// Accumulator is a streaming reducer over a fixed number of slots. It is
// not safe for concurrent use; callers serialize Add/Fold with their own
// lock (the network tier does) or call from one goroutine (the trainer).
type Accumulator struct {
	slots, dim int
	arrived    []bool
	resident   []*node // complete subtrees, sorted by start
	count      int
	parts      [][]float64 // the upload being folded, staged by fold's callers

	live, peakLive int // scratch buffers currently/maximally held
}

// New returns an empty accumulator over `slots` leaf positions of
// dimension `dim`. Slot indices are the caller's deterministic identity
// for each upload (model id, position in the sorted cohort, ...).
func New(slots, dim int) *Accumulator {
	if slots <= 0 || dim <= 0 {
		panic("agg: non-positive slots or dim")
	}
	return &Accumulator{slots: slots, dim: dim, arrived: make([]bool, slots)}
}

// Slots returns the leaf count of the reduction tree.
func (a *Accumulator) Slots() int { return a.slots }

// Dim returns the parameter-vector length.
func (a *Accumulator) Dim() int { return a.dim }

// Count returns how many leaves have arrived (directly or via Fold).
func (a *Accumulator) Count() int { return a.count }

// Weight returns the total weight of the partial sums currently held —
// the normalizer a partial round divides by when not all slots report.
// It is summed over resident nodes in ascending start order, and node
// weights merge along the same fixed tree as the vectors, so the value is
// bit-identical for every arrival order of the same slot set (a running
// arrival-order total would not be). After Drain the weight travels with
// the drained nodes.
func (a *Accumulator) Weight() float64 {
	var w float64
	for _, nd := range a.resident {
		w += nd.weight
	}
	return w
}

// Arrived reports whether a slot has already been folded.
func (a *Accumulator) Arrived(slot int) bool {
	return slot >= 0 && slot < a.slots && a.arrived[slot]
}

// Live returns the number of scratch buffers currently held; PeakLive the
// maximum ever held — the accumulator's whole memory footprint beyond the
// arrived bitmap, asserted by the scale tests to stay independent of the
// arrived count for in-order arrival.
func (a *Accumulator) Live() int     { return a.live }
func (a *Accumulator) PeakLive() int { return a.peakLive }

// Leaf returns an unzeroed scratch vector for the caller to fill
// completely in place (e.g. nn.UnmarshalParamsInto) before handing it to
// AddLeaf.
func (a *Accumulator) Leaf() *tensor.Tensor { return tensor.GetScratchUninit(a.dim) }

// AddParams folds one model at the given slot with the given weight. params
// are the model's parameter tensors in order (nn.Sequential.Params), read
// in place as one vector of Dim elements: nothing is copied, and each
// element is read once (see leaf).
func (a *Accumulator) AddParams(slot int, params []*tensor.Tensor, weight float64) error {
	for _, p := range params {
		a.parts = append(a.parts, p.Data())
	}
	return a.fold(slot, weight, nil)
}

// AddLeaf folds a filled Leaf buffer at the given slot with the given
// weight, taking ownership of v in all cases (it is released on error).
// v is scaled in place only when it parks; folded into a waiting sibling,
// it is scaled as it is added and released.
func (a *Accumulator) AddLeaf(slot int, v *tensor.Tensor, weight float64) error {
	if v == nil {
		return fmt.Errorf("agg: leaf dim 0, want %d", a.dim)
	}
	a.parts = append(a.parts, v.Data())
	return a.fold(slot, weight, v)
}

// Add folds data at slot, reading the caller's slice in place. It is the
// convenience path for callers that decoded a vector off the wire.
func (a *Accumulator) Add(slot int, data []float64, weight float64) error {
	a.parts = append(a.parts, data)
	return a.fold(slot, weight, nil)
}

// fold runs leaf over the upload staged in a.parts and unstages it.
func (a *Accumulator) fold(slot int, weight float64, own *tensor.Tensor) error {
	err := a.leaf(slot, weight, own)
	clear(a.parts)
	a.parts = a.parts[:0]
	return err
}

// leaf folds the upload staged in a.parts (the concatenation of its
// pieces, times weight) at slot, in one pass over the upload. A leaf whose
// sibling subtree is already complete is added straight into the
// sibling's buffer, scaling as it goes; any other leaf parks as its own
// scaled buffer (own, scaled in place, when the caller handed one over;
// otherwise unzeroed scratch, written scaled). Either way each element
// gets the pairwise tree's arithmetic: the product x·w is rounded on its
// own and enters the sum on the same side, so every bit is kept. own,
// when non-nil, is consumed.
func (a *Accumulator) leaf(slot int, weight float64, own *tensor.Tensor) error {
	n := 0
	for _, x := range a.parts {
		n += len(x)
	}
	var err error
	switch {
	case n != a.dim:
		err = fmt.Errorf("agg: upload dim %d, want %d", n, a.dim)
	case slot < 0 || slot >= a.slots:
		err = fmt.Errorf("agg: slot %d out of range [0,%d)", slot, a.slots)
	case a.arrived[slot]:
		err = fmt.Errorf("agg: duplicate upload for slot %d", slot)
	}
	if err != nil {
		if own != nil {
			tensor.PutScratch(own)
		}
		return err
	}
	a.arrived[slot] = true
	a.count++
	// Climb past partners beyond the last slot (sift's promote rule), then
	// look for the complete sibling sift would merge with.
	level := 0
	for slot != 0 && slot%(2<<level) == 0 && slot+1<<level >= a.slots {
		level++
	}
	span := 1 << level
	var sib *node
	if slot%(span<<1) != 0 {
		sib = a.take(slot-span, level)
	} else if slot+span < a.slots {
		sib = a.take(slot+span, level)
	}
	if sib == nil { // park
		v := own
		if v != nil {
			v.ScaleInPlace(weight)
		} else {
			v = tensor.GetScratchUninit(a.dim)
			a.each(v.Data(), weight, scaleInto)
		}
		a.hold(1)
		a.put(&node{start: slot, level: level, count: 1, weight: weight, vec: v})
		return nil
	}
	if sib.start < slot { // right leaf: left += x·w
		a.each(sib.vec.Data(), weight, addScaled)
		sib.weight += weight
	} else { // left leaf: x·w + right
		a.each(sib.vec.Data(), weight, scaledAdd)
		sib.start = slot
		sib.weight = weight + sib.weight
	}
	sib.count++
	sib.level++
	if own != nil {
		tensor.PutScratch(own)
	}
	a.sift(sib)
	return nil
}

// each applies op to consecutive spans of dst and the staged pieces.
func (a *Accumulator) each(dst []float64, w float64, op func(dst, x []float64, w float64)) {
	off := 0
	for _, x := range a.parts {
		op(dst[off:off+len(x)], x, w)
		off += len(x)
	}
}

// scaleInto writes dst[i] = x[i]·w. Every product is rounded explicitly
// (float64(...)) so no GOARCH fuses it into the next add (DESIGN.md §5).
func scaleInto(dst, x []float64, w float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = float64(v * w)
	}
}

// addScaled adds x[i]·w into dst[i], dst the left operand.
func addScaled(dst, x []float64, w float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] += float64(v * w)
	}
}

// scaledAdd writes dst[i] = x[i]·w + dst[i], the product the left operand.
func scaledAdd(dst, x []float64, w float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = float64(v*w) + dst[i]
	}
}

// Fold ingests a partial sum produced by a child accumulator's Drain:
// a complete tree node covering [start, start+count). The covered leaves
// are marked arrived and the node merges upward from its level, which is
// bit-identical to having added the covered leaves here directly.
func (a *Accumulator) Fold(start, level, count int, weight float64, data []float64) error {
	if len(data) != a.dim {
		return fmt.Errorf("agg: partial sum dim %d, want %d", len(data), a.dim)
	}
	v := tensor.GetScratch(a.dim)
	copy(v.Data(), data)
	return a.FoldNode(Node{Start: start, Level: level, Count: count, Weight: weight, Vec: v})
}

// FoldNode is Fold without the copy: it takes ownership of n.Vec (which
// must be arena scratch of the accumulator's dim), releasing it on error.
func (a *Accumulator) FoldNode(n Node) error {
	if n.Vec == nil || len(n.Vec.Data()) != a.dim {
		Release(n)
		return fmt.Errorf("agg: partial sum dim %d, want %d", dimOf(n.Vec), a.dim)
	}
	if err := a.checkNode(n.Start, n.Level, n.Count); err != nil {
		Release(n)
		return err
	}
	end := n.Start + n.Count
	for s := n.Start; s < end; s++ {
		a.arrived[s] = true
	}
	a.count += n.Count
	a.hold(1)
	a.sift(&node{start: n.Start, level: n.Level, count: n.Count, weight: n.Weight, vec: n.Vec})
	return nil
}

// checkNode validates that (start, level, count) names a complete tree
// node whose leaves have not arrived yet.
func (a *Accumulator) checkNode(start, level, count int) error {
	if level < 0 || level > 63 || start < 0 || start >= a.slots {
		return fmt.Errorf("agg: node start=%d level=%d out of range", start, level)
	}
	span := 1 << level
	if start%span != 0 {
		return fmt.Errorf("agg: node start %d not aligned to level %d", start, level)
	}
	if want := a.coverage(start, span); count != want {
		return fmt.Errorf("agg: node at %d/%d covers %d slots, want %d", start, level, count, want)
	}
	for s := start; s < start+count; s++ {
		if a.arrived[s] {
			return fmt.Errorf("agg: duplicate upload for slot %d", s)
		}
	}
	return nil
}

// coverage clips a span starting at start to the slot count.
func (a *Accumulator) coverage(start, span int) int {
	if start+span > a.slots {
		return a.slots - start
	}
	return span
}

// sift merges nd with completed siblings up the fixed tree until its
// partner is missing (park) or it becomes the root. The merge direction —
// left += right — and the promote rule for a left child whose partner
// start falls beyond the last slot replicate the pairwise tree's
// terms[i].AddInPlace(terms[i+span]) loop exactly, so each buffer
// receives the same addends in the same order as that tree.
func (a *Accumulator) sift(nd *node) {
	for {
		span := 1 << nd.level
		if nd.start == 0 && span >= a.slots {
			break // complete root
		}
		if nd.start%(span<<1) == 0 { // left child at this level
			ps := nd.start + span
			if ps >= a.slots {
				nd.level++ // partner beyond the last slot: promote
				continue
			}
			if p := a.take(ps, nd.level); p != nil {
				nd.vec.AddInPlace(p.vec)
				nd.weight += p.weight
				nd.count += p.count
				a.release(p)
				nd.level++
				continue
			}
		} else { // right child: fold into a waiting left sibling
			if l := a.take(nd.start-span, nd.level); l != nil {
				l.vec.AddInPlace(nd.vec)
				l.weight += nd.weight
				l.count += nd.count
				a.release(nd)
				nd = l
				nd.level++
				continue
			}
		}
		break // partner not complete yet: park
	}
	a.put(nd)
}

// take removes and returns the resident node at start if it has reached
// the wanted level (i.e. its subtree is complete); nil otherwise.
func (a *Accumulator) take(start, level int) *node {
	i := sort.Search(len(a.resident), func(i int) bool { return a.resident[i].start >= start })
	if i == len(a.resident) || a.resident[i].start != start || a.resident[i].level != level {
		return nil
	}
	nd := a.resident[i]
	a.resident = append(a.resident[:i], a.resident[i+1:]...)
	return nd
}

// put inserts nd keeping resident sorted by start.
func (a *Accumulator) put(nd *node) {
	i := sort.Search(len(a.resident), func(i int) bool { return a.resident[i].start >= nd.start })
	a.resident = append(a.resident, nil)
	copy(a.resident[i+1:], a.resident[i:])
	a.resident[i] = nd
}

func (a *Accumulator) hold(n int) {
	a.live += n
	if a.live > a.peakLive {
		a.peakLive = a.live
	}
}

func (a *Accumulator) release(nd *node) {
	tensor.PutScratch(nd.vec)
	nd.vec = nil
	a.live--
}

// Drain transfers the resident partial sums out of the accumulator in
// ascending start order — the canonical decomposition of the arrived slot
// set into maximal complete tree nodes, which is what an edge aggregator
// forwards upstream. Ownership of each Node.Vec moves to the caller
// (Release or a parent's FoldNode must reclaim it). The accumulator keeps
// its arrived/weight bookkeeping but holds no buffers afterwards.
func (a *Accumulator) Drain() []Node {
	out := make([]Node, len(a.resident))
	for i, nd := range a.resident {
		out[i] = Node{Start: nd.start, Level: nd.level, Count: nd.count, Weight: nd.weight, Vec: nd.vec}
		nd.vec = nil
	}
	a.live -= len(a.resident)
	a.resident = a.resident[:0]
	return out
}

// Finish folds any residual partial sums in ascending start order, scales
// the result by norm (pass 1 for pre-normalized weights, 1/Weight() for a
// partial round), and returns the final vector — arena scratch owned by
// the caller. For a fully-arrived tree there is exactly one resident node
// and Finish(1) returns the pairwise tree's bits unchanged. Finish returns
// nil when nothing arrived; the accumulator is empty afterwards.
func (a *Accumulator) Finish(norm float64) *tensor.Tensor {
	if len(a.resident) == 0 {
		return nil
	}
	res := a.resident[0]
	for _, nd := range a.resident[1:] {
		res.vec.AddInPlace(nd.vec)
		a.release(nd)
	}
	a.resident = a.resident[:0]
	out := res.vec
	res.vec = nil
	a.live--
	if norm != 1 {
		out.ScaleInPlace(norm)
	}
	return out
}

// NodeCount returns how many partial-sum payloads an aggregator holding
// exactly the given arrived slots forwards upstream — the number of
// maximal complete tree nodes covering the set. The cost accountant uses
// it to charge gateway→cloud traffic without running a reduction.
func NodeCount(slots int, members []int) int {
	if len(members) == 0 {
		return 0
	}
	in := make([]bool, slots)
	for _, m := range members {
		if m < 0 || m >= slots {
			panic("agg: member slot out of range")
		}
		in[m] = true
	}
	// pre[i] = number of arrived slots below i, so complete(lo,hi) is O(1).
	pre := make([]int, slots+1)
	for i := 0; i < slots; i++ {
		pre[i+1] = pre[i]
		if in[i] {
			pre[i+1]++
		}
	}
	full := func(lo, hi int) bool {
		if hi > slots {
			hi = slots
		}
		return pre[hi]-pre[lo] == hi-lo
	}
	nodes, consumed := 0, 0
	for s := 0; s < slots; s++ {
		if !in[s] || s < consumed {
			continue
		}
		// Grow the node containing s while its parent is also complete
		// (the clip in full mirrors sift's boundary-promote rule).
		start, span := s, 1
		for span < slots {
			pstart := start - start%(span<<1)
			if !full(pstart, pstart+span<<1) {
				break
			}
			start, span = pstart, span<<1
		}
		nodes++
		consumed = start + span
	}
	return nodes
}

func dimOf(v *tensor.Tensor) int {
	if v == nil {
		return 0
	}
	return len(v.Data())
}
