package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{5, 1, 3, 2, 4} {
		s.Add(x)
	}
	if s.N() != 5 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("basics: n=%d min=%v max=%v", s.N(), s.Min(), s.Max())
	}
	if s.Mean() != 3 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Median() != 3 {
		t.Errorf("median = %v", s.Median())
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample should return zeros")
	}
	if s.FractionBelow(10) != 0 {
		t.Error("empty FractionBelow")
	}
	if s.CDFAt(10) != nil {
		t.Error("empty CDFAt")
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 10: 10, 50: 50, 90: 90, 100: 100}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
}

func TestFractionBelow(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.x); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	var s Sample
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s.Add(rng.NormFloat64())
	}
	pts := s.CDFAt(20)
	if len(pts) != 20 || pts[19].P != 1 {
		t.Fatalf("CDFAt: %d points, last P %v", len(pts), pts[len(pts)-1].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P <= pts[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
}

// Property: Percentile agrees with direct sorted indexing; FractionBelow is
// the inverse relation.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var s Sample
		s.AddAll(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{1, 25, 50, 75, 99} {
			rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
			if rank < 0 {
				rank = 0
			}
			if s.Percentile(p) != sorted[rank] {
				return false
			}
		}
		for _, x := range xs {
			fb := s.FractionBelow(x)
			count := 0
			for _, y := range xs {
				if y <= x {
					count++
				}
			}
			if math.Abs(fb-float64(count)/float64(len(xs))) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
