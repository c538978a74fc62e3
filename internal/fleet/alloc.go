package fleet

import (
	"fmt"

	"fedmigr/internal/edgenet"
	"fedmigr/internal/qp"
)

// slot is one client-sized unit of a job's per-round demand.
type slot struct {
	job  *Job
	take int // slot index within the job (jitter decorrelation)
}

// allocJitter derives the allocator's deterministic tie-break noise for a
// (round, slot, client) triple — a splitmix64-style mix of the manager
// seed, same recipe as core's modelEpochSeed, mapped into [0, 1). Scaled by
// jitterScale it perturbs utilities enough to break exact ties (and rotate
// choices among equivalent clients round to round) without ever reordering
// materially different candidates.
func allocJitter(seed int64, round, slotIdx, client int) float64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(round+1) ^
		0x2545f4914f6cdd1d*uint64(slotIdx+1) ^ 0xd6e8feb86659fd93*uint64(client+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

const jitterScale = 1e-6

// forbiddenUtility marks a (slot, client) pair the assignment must avoid:
// the client is outside the slot's job membership. Large and finite so the
// assignment solver stays numerically well-posed; any assignment that picks
// one is filtered after solving.
const forbiddenUtility = -1e18

// clientUtility scores giving one of job j's slots to client c: the
// negated estimated round latency — local compute over the job's per-client
// partition plus the model upload over the client's C2S link. Only PURE
// cost-model reads are used: edgenet.TransferTime consumes the shared
// jitter RNG and would make allocation depend on call order, so the
// allocator prices transfers from Bandwidth directly.
func (m *Manager) clientUtility(j *Job, c int) float64 {
	samples := 1
	if j.Cfg.Samples != nil {
		samples = j.Cfg.Samples[c]
	}
	compute := m.cost.ComputeTime(c, samples)
	upload := float64(j.modelBytes) / m.cost.Bandwidth(c, c, edgenet.C2S)
	return -(compute + upload)
}

// allocate assigns active clients to the due jobs' slots, maximizing total
// utility, and returns each job's client list sorted ascending (the order
// aggregation slots expect). active is the round's liveness mask; takes[i]
// is how many clients due[i] receives this round (takes[i] ≤ demand after
// scarcity scaling; sum(takes) ≤ active count).
func (m *Manager) allocate(due []*Job, takes []int, active []bool) map[*Job][]int {
	clients := make([]int, 0, len(active))
	for c, ok := range active {
		if ok {
			clients = append(clients, c)
		}
	}
	slots := make([]slot, 0)
	for i, j := range due {
		for s := 0; s < takes[i]; s++ {
			slots = append(slots, slot{job: j, take: s})
		}
	}
	if len(slots) == 0 || len(clients) == 0 {
		return map[*Job][]int{}
	}
	// A client's utility depends on the job, not the slot, so it is priced
	// once per (job, client); each of the job's slots adds its own jitter.
	// slots lists each job's slots together, in due order, so len(utility)
	// is the slot index.
	utility := make([][]float64, 0, len(slots))
	base := make([]float64, len(clients))
	member := make([]bool, len(clients))
	for i, j := range due {
		if takes[i] == 0 {
			continue
		}
		for ci, c := range clients {
			if member[ci] = j.member(c); member[ci] {
				base[ci] = m.clientUtility(j, c)
			}
		}
		for s := 0; s < takes[i]; s++ {
			si := len(utility)
			row := make([]float64, len(clients))
			for ci, c := range clients {
				if !member[ci] {
					row[ci] = forbiddenUtility
					continue
				}
				row[ci] = base[ci] + jitterScale*allocJitter(m.cfg.Seed, m.round, si, c)
			}
			utility = append(utility, row)
		}
	}
	dest, _, err := qp.SolveAssignment(utility)
	if err != nil {
		// Every row spans the active clients and RunRound caps Σtakes at
		// their count, so the instance is a non-empty rows ≤ cols
		// rectangle by construction; an error means that invariant broke.
		panic(fmt.Sprintf("fleet: invariant Σtakes ≤ active clients broken (%d slots, %d clients): %v",
			len(slots), len(clients), err))
	}
	out := make(map[*Job][]int, len(due))
	for si, ci := range dest {
		j := slots[si].job
		if !j.member(clients[ci]) {
			continue // solver was cornered into a forbidden pair: slot unserved
		}
		out[j] = append(out[j], clients[ci])
	}
	for _, got := range out {
		sortInts(got)
	}
	return out
}

// sortInts is an insertion sort: allocation lists are demand-sized (tens),
// and keeping it local avoids pulling package sort into the hot path.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
