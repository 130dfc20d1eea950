package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Count() != 100 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 50.5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("P50 = %v", got)
	}
	if got := s.Percentile(95); got != 95 {
		t.Fatalf("P95 = %v", got)
	}
	if got := s.Max(); got != 100 {
		t.Fatalf("Max = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min = %v", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	if s.Mean() != 0 || s.Percentile(99) != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	s := NewSummary()
	s.Add(3)
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(2)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("Min after re-add = %v", got)
	}
	if got := s.Percentile(100); got != 3 {
		t.Fatalf("Max after re-add = %v", got)
	}
}

func TestSummaryReset(t *testing.T) {
	s := NewSummary()
	s.Add(5)
	s.Reset()
	if s.Count() != 0 || s.Sum() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		s := NewSummary()
		for i := 0; i < 100; i++ {
			s.Add(r.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileOfDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = PercentileOf(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("PercentileOf mutated its input")
	}
}
