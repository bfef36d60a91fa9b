// Package stats provides the summary statistics and time-series accumulators
// used by the experiment harnesses: Table 2 reports means and standard
// deviations of inter-frame and inter-GOP delays, and Figures 5-7 report
// per-frame traces and time-bucketed counters.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates moments of a scalar sample stream using Welford's
// online algorithm, which stays numerically stable over the million-sample
// streams the throughput experiments produce.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (n-1 denominator).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// String formats the summary in the style of the paper's Table 2 rows.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f max=%.2f",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Merge folds another summary into s (parallel-run aggregation).
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := float64(s.n + o.n)
	d := o.mean - s.mean
	mean := s.mean + d*float64(o.n)/n
	m2 := s.m2 + o.m2 + d*d*float64(s.n)*float64(o.n)/n
	s.mean, s.m2 = mean, m2
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Sample retains every observation, supporting percentiles. Use Summary when
// only moments are needed.
type Sample struct {
	xs []float64
	// sorted caches an order-independent copy for percentile queries; it is
	// invalidated by Add. xs itself always keeps insertion order — Values
	// and time-series consumers rely on it.
	sorted []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = nil
}

// Values returns the raw observations in insertion order. The caller must
// not mutate the returned slice.
func (s *Sample) Values() []float64 { return s.xs }

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation between closest ranks. It returns 0 for an empty sample.
// The sample's insertion order is preserved: sorting happens on a cached
// copy, never on the Values slice itself.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if len(s.sorted) != len(s.xs) {
		s.sorted = append([]float64(nil), s.xs...)
		sort.Float64s(s.sorted)
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[len(s.sorted)-1]
	}
	rank := p / 100 * float64(len(s.sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := rank - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// Summary computes a Summary over the retained observations.
func (s *Sample) Summary() *Summary {
	out := &Summary{}
	for _, x := range s.xs {
		out.Add(x)
	}
	return out
}
