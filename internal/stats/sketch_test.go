package stats

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func TestSketchEmpty(t *testing.T) {
	s := NewDefaultLatencySketch()
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile on empty sketch = %v, want 0", got)
	}
	if s.Count() != 0 || s.Sum() != 0 || s.Max() != 0 {
		t.Fatalf("empty sketch count/sum/max = %d/%v/%v, want zeros", s.Count(), s.Sum(), s.Max())
	}
}

func TestSketchSingleSample(t *testing.T) {
	s := NewDefaultLatencySketch()
	s.Observe(0.042)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0.042 {
			t.Fatalf("Quantile(%v) with one sample = %v, want exactly 0.042 (min/max clamp)", q, got)
		}
	}
	if got := s.Max(); got != 0.042 {
		t.Fatalf("Max = %v, want 0.042", got)
	}
}

func TestSketchRejectsPathologicalValues(t *testing.T) {
	s := NewDefaultLatencySketch()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		s.Observe(v)
	}
	s.Observe(1.0)
	if s.Count() != 6 {
		t.Fatalf("Count = %d, want 6 (pathological values are still counted)", s.Count())
	}
	if got := s.Sum(); got != 1.0 {
		t.Fatalf("Sum = %v, want 1.0 (NaN/Inf excluded)", got)
	}
	if got := s.Max(); got != 1.0 {
		t.Fatalf("Max = %v, want 1.0", got)
	}
	// The quantile must stay finite: junk lands in the underflow bucket and
	// the estimate is clamped to the observed finite range.
	for _, q := range []float64{0, 0.5, 1} {
		got := s.Quantile(q)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Quantile(%v) = %v after NaN/Inf observations", q, got)
		}
	}
	if got := s.Quantile(math.NaN()); math.IsNaN(got) {
		t.Fatal("Quantile(NaN) returned NaN")
	}
}

// TestSketchVersusSortedReference drives the sketch with a deterministic
// heavy-tailed stream and checks every decile against the exact sort-based
// quantile: the relative error must stay within the bucket growth factor.
func TestSketchVersusSortedReference(t *testing.T) {
	s := NewDefaultLatencySketch()
	var xs []float64
	// Deterministic LCG so the test needs no seed plumbing; values span
	// ~1µs to ~10s like real request latencies.
	state := uint64(12345)
	for i := 0; i < 20000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / float64(1<<53) // uniform [0,1)
		v := 1e-6 * math.Pow(10, 7*u)            // log-uniform 1e-6..10
		xs = append(xs, v)
		s.Observe(v)
	}
	sort.Float64s(xs)
	for q := 0.1; q < 1.0; q += 0.1 {
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		got := s.Quantile(q)
		relerr := math.Abs(got-exact) / exact
		// Bucket width is 5%, so the midpoint estimate is within 5% even
		// with rank straddling a bucket edge.
		if relerr > 0.05 {
			t.Fatalf("Quantile(%.1f) = %v, exact %v, relative error %.3f > 0.05", q, got, exact, relerr)
		}
	}
	if got, max := s.Quantile(1), xs[len(xs)-1]; got > max || got < max*0.95 {
		t.Fatalf("Quantile(1) = %v, want within 5%% below observed max %v", got, max)
	}
}

func TestSketchConcurrentObserve(t *testing.T) {
	s := NewDefaultLatencySketch()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Observe(float64(g+1) * 1e-3)
			}
		}(g)
	}
	wg.Wait()
	if s.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", s.Count())
	}
	if got := s.Quantile(1); got > 8e-3 || got < 8e-3*0.95 {
		t.Fatalf("Quantile(1) = %v, want within 5%% below 8e-3", got)
	}
	if got := s.Max(); got != 8e-3 {
		t.Fatalf("Max = %v, want 8e-3", got)
	}
}

func TestSketchBadParametersFallBack(t *testing.T) {
	for _, c := range [][3]float64{{-1, 10, 1.05}, {1, 0.5, 1.05}, {1e-6, 1e4, 0.9}, {math.NaN(), 1, 1.05}} {
		s := NewLatencySketch(c[0], c[1], c[2])
		s.Observe(0.5)
		if got := s.Quantile(0.5); got != 0.5 {
			t.Fatalf("sketch with params %v: Quantile(0.5) = %v, want 0.5", c, got)
		}
	}
}
