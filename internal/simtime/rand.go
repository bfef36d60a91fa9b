package simtime

import (
	"math"
	"math/rand"
)

// Rand is a deterministic random source used across the simulation. It wraps
// math/rand with the distributions the workload and media models need, so
// that every stochastic choice in an experiment flows from one seed.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent deterministic stream, so subsystems can draw
// without perturbing each other's sequences.
func (r *Rand) Fork() *Rand {
	return NewRand(r.r.Int63())
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap bijective
// mixer whose outputs pass statistical independence tests even for
// consecutive inputs. Seed derivation uses it so that nearby (seed, replica)
// cells land in unrelated regions of the generator's state space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed deterministically derives an independent seed from a base seed
// and a string discriminator (a scenario or point key). The result depends
// only on the inputs — never on call order or enumeration position — so a
// sweep that reorders its points still hands every cell the same seed.
func DeriveSeed(base int64, key string) int64 {
	h := splitmix64(uint64(base))
	for i := 0; i < len(key); i++ {
		h = splitmix64(h ^ uint64(key[i]))
	}
	return int64(h &^ (1 << 63)) // non-negative, friendlier in logs/CSV
}

// ReplicaSeed derives the workload seed for replica i of a sweep. Replica 0
// runs the base seed itself, so a single-replica sweep reproduces a plain
// serial run byte-for-byte; higher replicas get mixed, mutually independent
// seeds. The derivation is per-replica, not per-point: every point of a
// sweep sees the identical query stream within one replica, which is what
// makes cross-system comparisons (Figures 6/7) paired rather than noisy.
func ReplicaSeed(base int64, replica int) int64 {
	if replica == 0 {
		return base
	}
	return int64(splitmix64(splitmix64(uint64(base))^uint64(replica)) &^ (1 << 63))
}

// Float64 returns a uniform sample in [0,1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Uniform returns a uniform sample in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.r.Float64()
}

// ExpDur returns an exponential virtual-time sample with the given mean.
func (r *Rand) ExpDur(mean Time) Time {
	return Time(r.r.ExpFloat64() * float64(mean))
}

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int { return r.r.Perm(n) }

// Pick returns a uniformly chosen index weighted by w. The weights must be
// non-negative and not all zero.
func (r *Rand) Pick(w []float64) int {
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum <= 0 {
		panic("simtime: Pick with non-positive total weight")
	}
	u := r.r.Float64() * sum
	for i, x := range w {
		u -= x
		if u < 0 {
			return i
		}
	}
	return len(w) - 1
}

// Zipf returns a sampler over [0,n) with skew s >= 1 (s=1 ~ classic Zipf).
// Video access popularity in the extended workloads uses this; the paper's
// own generator is uniform, which callers get with s=0 handled by Intn.
func (r *Rand) Zipf(s float64, n int) func() int {
	if n <= 0 {
		panic("simtime: Zipf over empty domain")
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
	}
	return func() int { return r.Pick(weights) }
}
