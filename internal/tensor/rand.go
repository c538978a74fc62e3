package tensor

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source used throughout the repository so
// experiments are reproducible under a fixed seed. It wraps math/rand with
// a few distributions the NN and DRL code needs.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Fork returns a new RNG seeded from g's stream, so subsystems can draw
// independent deterministic streams from one master seed.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Randn returns a tensor with i.i.d. N(0, std²) entries.
func Randn(g *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = g.NormFloat64() * std
	}
	return t
}

// Uniform returns a tensor with i.i.d. Uniform(lo, hi) entries.
func Uniform(g *RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + float64((hi-lo)*g.Float64())
	}
	return t
}

// XavierUniform returns a tensor initialized with Glorot/Xavier uniform
// scaling for the given fan-in and fan-out.
func XavierUniform(g *RNG, fanIn, fanOut int, shape ...int) *Tensor {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return Uniform(g, -bound, bound, shape...)
}

// HeNormal returns a tensor initialized with He/Kaiming normal scaling for
// the given fan-in, appropriate for ReLU networks.
func HeNormal(g *RNG, fanIn int, shape ...int) *Tensor {
	return Randn(g, math.Sqrt(2.0/float64(fanIn)), shape...)
}
