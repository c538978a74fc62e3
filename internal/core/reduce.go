package core

import (
	"fedmigr/internal/agg"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// streamingParamSum computes Σᵢ ws[i]·ParamVector(ms[i]) through the
// streaming accumulator: each model folds at its slot index straight from
// its parameter tensors (agg.AddParams: one read, no leaf copy), so live
// scratch is bounded by the reduction frontier (O(log n) for the in-order
// fold here) instead of every leaf at once. The tree's shape depends only on len(ms), never on the worker
// count, so the float64 result is identical for serial and parallel runs —
// the determinism contract aggregation and evaluation rely on (DESIGN.md
// §5).
//
// groupSlots, when non-nil, partitions the slot indices onto simulated
// edge aggregators: each group streams into its own child accumulator and
// the drained partial sums fold into the root — bit-identical to the flat
// fold for ANY grouping, because grouping only changes which complete
// tree nodes travel as a unit. Returns the sum and the peak number of
// live leaf buffers across all accumulators.
func streamingParamSum(ms []*nn.Sequential, ws []float64, groupSlots [][]int) (*tensor.Tensor, int) {
	if len(ms) == 0 {
		return nil, 0
	}
	dim := ms[0].NumParams()
	root := agg.New(len(ms), dim)
	fold := func(a *agg.Accumulator, slot int) {
		ps, _ := ms[slot].Params()
		if err := a.AddParams(slot, ps, ws[slot]); err != nil {
			panic(err) // slots are coordinator-assigned and unique
		}
	}
	peak := 0
	if groupSlots == nil {
		for slot := range ms {
			fold(root, slot)
		}
		peak = root.PeakLive()
	} else {
		for _, slots := range groupSlots {
			if len(slots) == 0 {
				continue
			}
			child := agg.New(len(ms), dim)
			for _, slot := range slots {
				fold(child, slot)
			}
			if p := child.PeakLive(); p > peak {
				peak = p
			}
			for _, nd := range child.Drain() {
				if err := root.FoldNode(nd); err != nil {
					panic(err)
				}
			}
		}
		if p := root.PeakLive(); p > peak {
			peak = p
		}
	}
	return root.Finish(1), peak
}
