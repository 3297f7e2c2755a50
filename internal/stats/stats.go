// Package stats provides the measurement utilities used across the
// reproduction: empirical CDFs (most of the paper's figures are CDFs) and
// simple summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample is a growable set of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll appends many observations.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.xs[rank]
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// FractionBelow returns the empirical CDF evaluated at x: the fraction of
// observations ≤ x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative fraction in [0,1]
}

// CDFAt samples the CDF at k evenly spaced cumulative fractions —
// convenient for printing figure series compactly.
func (s *Sample) CDFAt(k int) []CDFPoint {
	if k < 2 || len(s.xs) == 0 {
		return nil
	}
	s.ensureSorted()
	out := make([]CDFPoint, k)
	for i := 0; i < k; i++ {
		p := float64(i+1) / float64(k)
		idx := int(p*float64(len(s.xs))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i] = CDFPoint{X: s.xs[idx], P: p}
	}
	return out
}

func (s *Sample) String() string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g mean=%.4g p90=%.4g max=%.4g",
		s.N(), s.Min(), s.Median(), s.Mean(), s.Percentile(90), s.Max())
}
