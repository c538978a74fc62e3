// Package drl implements the paper's experience-driven migration policy
// generation (EMPG, Alg. 1): a DDPG agent — actor π(s|θ), critic Q(s,a|ψ),
// slowly-tracking target networks — trained from a prioritized experience
// replay buffer whose priorities combine TD error and action-gradient
// magnitude (Eqs. 23–29), with ρ-greedy exploration that falls back on the
// relaxed FLMM solver in internal/qp.
package drl

import (
	"fmt"
	"math"
	"sync"

	"fedmigr/internal/tensor"
)

// Transition is one experience tuple z = (s_t, a_t, r_t, s_{t+1}).
// States and actions are stored as flat feature/action vectors.
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	// Done marks terminal transitions (no bootstrapping).
	Done bool
}

// PERBuffer is the prioritized experience replay buffer of Sec. III-D2.
// Priorities follow Eq. (25): ρ_z = ε·|φ_z| + (1−ε)·|∇aQ|; sampling
// probabilities follow Eq. (26): P(z) ∝ ρ_z^ξ; importance-sampling weights
// follow Eq. (29). The buffer is safe for concurrent use: the scheduler may
// run the agent's replay updates alongside parallel client training.
type PERBuffer struct {
	// Epsilon is ε, the TD-error/gradient mixing weight.
	Epsilon float64
	// Xi is ξ, the prioritization exponent (0 = uniform sampling).
	Xi float64

	mu    sync.Mutex
	cap   int
	items []Transition
	prio  []float64
	ps    []float64 // the Eq. (26) table, rebuilt by every Sample
	next  int
	maxP  float64
	rng   *tensor.RNG
}

// NewPERBuffer returns a buffer holding at most capacity transitions.
func NewPERBuffer(capacity int, epsilon, xi float64, seed int64) *PERBuffer {
	if capacity <= 0 {
		panic("drl: PERBuffer capacity must be positive")
	}
	return &PERBuffer{
		Epsilon: epsilon, Xi: xi, cap: capacity,
		rng:  tensor.NewRNG(seed),
		maxP: 1, // the paper initializes ρ_1 = 1
	}
}

// Len returns the number of stored transitions.
func (b *PERBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// Add stores a transition with maximal priority so every new experience is
// replayed at least once soon.
func (b *PERBuffer) Add(t Transition) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) < b.cap {
		b.items = append(b.items, t)
		b.prio = append(b.prio, b.maxP)
		return
	}
	b.items[b.next] = t
	b.prio[b.next] = b.maxP
	b.next = (b.next + 1) % b.cap
}

// Priority computes Eq. (25) from a TD error and an action-gradient norm.
func (b *PERBuffer) Priority(tdErr, gradNorm float64) float64 {
	p := b.Epsilon*math.Abs(tdErr) + (1-b.Epsilon)*math.Abs(gradNorm)
	if p < 1e-6 {
		p = 1e-6 // keep every transition replayable
	}
	return p
}

// UpdatePriority reassigns a stored transition's priority after a training
// pass (Alg. 1 line 16).
func (b *PERBuffer) UpdatePriority(idx int, p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= len(b.prio) {
		panic(fmt.Sprintf("drl: priority index %d out of range %d", idx, len(b.prio)))
	}
	if p <= 0 {
		p = 1e-6
	}
	b.prio[idx] = p
	if p > b.maxP {
		b.maxP = p
	}
}

// probs materializes Eq. (26) over the current buffer into the buffer's
// own table and returns it. Callers must hold b.mu.
func (b *PERBuffer) probs() []float64 {
	if cap(b.ps) < len(b.prio) {
		b.ps = make([]float64, len(b.prio), b.cap)
	}
	ps := b.ps[:len(b.prio)]
	sum := 0.0
	for i, p := range b.prio {
		v := math.Pow(p, b.Xi)
		ps[i] = v
		sum += v
	}
	if sum <= 0 {
		for i := range ps {
			ps[i] = 1 / float64(len(ps))
		}
		return ps
	}
	for i := range ps {
		ps[i] /= sum
	}
	return ps
}

// Sample draws len(idx) transitions (with replacement) according to
// Eq. (26) into the caller's slices, which must have equal lengths: their
// buffer indices into idx, the transitions into ts, and the normalized
// importance-sampling weights of Eq. (29) into isw. It reports false, and
// writes nothing, when the buffer is empty.
func (b *PERBuffer) Sample(idx []int, ts []Transition, isw []float64) bool {
	n := len(idx)
	if len(ts) != n || len(isw) != n {
		panic(fmt.Sprintf("drl: Sample into %d indices, %d transitions, %d weights", n, len(ts), len(isw)))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) == 0 {
		return false
	}
	ps := b.probs()
	maxW := 0.0
	for s := 0; s < n; s++ {
		r := b.rng.Float64()
		acc := 0.0
		chosen := len(ps) - 1
		for i, p := range ps {
			acc += p
			if r < acc {
				chosen = i
				break
			}
		}
		idx[s] = chosen
		ts[s] = b.items[chosen]
		w := math.Pow(float64(len(b.items))*ps[chosen], -b.Xi)
		isw[s] = w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for s := range isw {
			isw[s] /= maxW
		}
	}
	return true
}

// SampleProbabilities returns a copy of the current Eq. (26) distribution
// (testing and diagnostics).
func (b *PERBuffer) SampleProbabilities() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.probs()...)
}
