package stats

import (
	"math"
	"sort"
)

// Summary accumulates scalar observations and reports order statistics.
// It stores all samples; for the simulator's scale (millions of latency
// samples) this is acceptable and keeps percentiles exact, matching how
// memtier/YCSB report p95/p99.9 latencies.
type Summary struct {
	vals   []float64
	sorted bool
	sum    float64
}

// NewSummary returns an empty summary.
func NewSummary() *Summary { return &Summary{} }

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// Count returns the number of observations.
func (s *Summary) Count() int { return len(s.vals) }

// Sum returns the sum of observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Percentile returns the p-th percentile (p in [0,100]) using nearest-rank,
// or 0 if empty.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s.vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.vals[rank]
}

// Max returns the maximum observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.Percentile(100) }

// Min returns the minimum observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.Percentile(0) }

// Reset discards all observations.
func (s *Summary) Reset() {
	s.vals = s.vals[:0]
	s.sum = 0
	s.sorted = false
}

// PercentileOf returns the p-th percentile (nearest-rank, p in [0,100]) of
// the given values without mutating the input slice.
func PercentileOf(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	cp := make([]float64, len(vals))
	copy(cp, vals)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}
