package stats

import "math"

// Sampler produces indices in [0, N) according to some access distribution.
// Workload drivers use Samplers to pick which key/page to touch next.
type Sampler interface {
	// Next returns the next sampled index in [0, N()).
	Next() int64
	// N returns the size of the sampled universe.
	N() int64
}

// Zipf samples from a Zipfian distribution over [0, n) with exponent theta,
// matching the generator used by YCSB ("workloadc" uses zipfian request
// distribution). Rank 0 is the most popular item. An optional shifting
// hotspot rotates the popularity ranking over time, reproducing the
// continuously shifting access pattern the paper observes for Memcached
// with YCSB (§8.2.2, Figure 9d).
type Zipf struct {
	rng   *RNG
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64

	// shift support
	offset      int64
	shiftEvery  int64 // samples between hotspot rotations; 0 = static
	shiftAmount int64 // ranks to rotate by on each shift
	count       int64
	scramble    bool
}

// NewZipf returns a Zipfian sampler over [0, n) with exponent theta
// (YCSB default is 0.99). If scramble is true, ranks are hashed onto the
// key space (YCSB's "scrambled zipfian") so popular items are spread out.
func NewZipf(rng *RNG, n int64, theta float64, scramble bool) *Zipf {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	z := &Zipf{rng: rng, n: n, theta: theta, scramble: scramble}
	z.zetan = zetaStatic(n, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// SetShift configures hotspot rotation: every "every" samples the popularity
// ranking rotates by "amount" positions. This models workloads whose hot set
// drifts over time.
func (z *Zipf) SetShift(every, amount int64) {
	z.shiftEvery = every
	z.shiftAmount = amount
}

func zetaStatic(n int64, theta float64) float64 {
	// For large n use the integral approximation to keep construction O(1)-ish;
	// exact sum for small n.
	if n <= 1<<20 {
		sum := 0.0
		for i := int64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	base := zetaStatic(1<<20, theta)
	// integral of x^-theta from 2^20 to n
	if theta == 1 {
		return base + math.Log(float64(n)/float64(1<<20))
	}
	return base + (math.Pow(float64(n), 1-theta)-math.Pow(float64(1<<20), 1-theta))/(1-theta)
}

// Next returns the next Zipfian-sampled index.
func (z *Zipf) Next() int64 {
	z.count++
	if z.shiftEvery > 0 && z.count%z.shiftEvery == 0 {
		z.offset = (z.offset + z.shiftAmount) % z.n
	}
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	rank = (rank + z.offset) % z.n
	if z.scramble {
		rank = int64(fnvHash64(uint64(rank)) % uint64(z.n))
	}
	return rank
}

// N returns the universe size.
func (z *Zipf) N() int64 { return z.n }

func fnvHash64(x uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 0x100000001b3
		x >>= 8
	}
	return h
}

// Gaussian samples indices from a (truncated, wrapped) normal distribution
// centered at mean with standard deviation sigma, matching memtier_benchmark's
// Gaussian access pattern option used by the paper for Memcached/memtier.
// The center can drift to model moving working sets.
type Gaussian struct {
	rng        *RNG
	n          int64
	mean       float64
	sigma      float64
	drift      float64 // added to mean per sample
	count      int64
	shiftEvery int64
	shiftTo    func(count int64) float64 // optional mean repositioning
}

// NewGaussian returns a Gaussian sampler over [0, n) centered at mean with
// standard deviation sigma.
func NewGaussian(rng *RNG, n int64, mean, sigma float64) *Gaussian {
	if n <= 0 {
		panic("stats: Gaussian with non-positive n")
	}
	return &Gaussian{rng: rng, n: n, mean: mean, sigma: sigma}
}

// SetDrift makes the distribution center advance by d positions per sample,
// wrapping around the key space.
func (g *Gaussian) SetDrift(d float64) { g.drift = d }

// Next returns the next Gaussian-sampled index, wrapped into [0, n).
func (g *Gaussian) Next() int64 {
	g.count++
	g.mean += g.drift
	v := g.mean + g.rng.NormFloat64()*g.sigma
	idx := int64(math.Round(v)) % g.n
	if idx < 0 {
		idx += g.n
	}
	return idx
}

// N returns the universe size.
func (g *Gaussian) N() int64 { return g.n }
