package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// population variance of this classic set is 4; sample variance 32/7.
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("sd = %v, want %v", s.StdDev(), want)
	}
	if s.min != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.min, s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty summary should be zero-valued")
	}
	s.Add(3)
	if s.Mean() != 3 || s.StdDev() != 0 {
		t.Fatalf("single-sample summary wrong: %v", s.String())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	if err := quick.Check(func(a, b []float64) bool {
		var whole, left, right Summary
		for _, x := range a {
			clip := math.Mod(x, 1000)
			if math.IsNaN(clip) {
				clip = 0
			}
			whole.Add(clip)
			left.Add(clip)
		}
		for _, x := range b {
			clip := math.Mod(x, 1000)
			if math.IsNaN(clip) {
				clip = 0
			}
			whole.Add(clip)
			right.Add(clip)
		}
		left.Merge(&right)
		if left.N() != whole.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		return math.Abs(left.Mean()-whole.Mean()) < 1e-6 &&
			math.Abs(left.Var()-whole.Var()) < 1e-4
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 {
		t.Fatal("empty sample percentile should be 0")
	}
}

func TestSampleSummary(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	sum := s.Summary()
	if sum.Mean() != 2 || sum.N() != 2 {
		t.Fatalf("sample summary wrong: %v", sum)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(10 * time.Second)
	ts.Observe(1*time.Second, 4)
	ts.Observe(9*time.Second, 6)
	ts.Observe(15*time.Second, 10)
	if len(ts.sums) != 2 {
		t.Fatalf("len = %d, want 2", len(ts.sums))
	}
	if ts.Sum(0) != 10 || ts.Sum(1) != 10 {
		t.Fatalf("bucket sums = %v/%v, want 10/10", ts.Sum(0), ts.Sum(1))
	}
	if ts.Sum(7) != 0 {
		t.Fatal("out-of-range bucket should read zero")
	}
}

func TestNewTimeSeriesPanicsOnZeroBucket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bucket did not panic")
		}
	}()
	NewTimeSeries(0)
}

func TestTraceSummaryAndPlot(t *testing.T) {
	var tr Trace
	for i := 0; i < 100; i++ {
		tr.Add(time.Duration(i)*time.Millisecond, float64(i%10))
	}
	if tr.Len() != 100 {
		t.Fatalf("len = %d", tr.Len())
	}
	plot := tr.ASCIIPlot(40, 5, 0)
	if plot == "" {
		t.Fatal("plot empty")
	}
	empty := (&Trace{}).ASCIIPlot(40, 5, 0)
	if empty != "" {
		t.Fatal("empty trace should render empty plot")
	}
}

// Regression: Percentile used to sort the observation slice in place,
// destroying the insertion order Values() promises (and that time-series
// consumers depend on). Percentiles must sort a cached copy instead.
func TestPercentilePreservesInsertionOrder(t *testing.T) {
	var s Sample
	in := []float64{5, 1, 4, 2, 3}
	for _, x := range in {
		s.Add(x)
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	for i, x := range s.Values() {
		if x != in[i] {
			t.Fatalf("Values()[%d] = %v after Percentile, want %v (insertion order destroyed: %v)",
				i, x, in[i], s.Values())
		}
	}
	// The sorted cache must invalidate on Add.
	s.Add(0)
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("p0 after Add = %v, want 0 (stale sorted cache)", got)
	}
	if got := s.Values()[len(s.Values())-1]; got != 0 {
		t.Fatalf("last value = %v, want 0", got)
	}
}

func TestSummaryMergeIntoZeroValue(t *testing.T) {
	var a Summary
	var b Summary
	for _, x := range []float64{-7, 3, 12} {
		b.Add(x)
	}
	a.Merge(&b)
	if a.N() != 3 || a.min != -7 || a.Max() != 12 {
		t.Fatalf("merge into zero value: n=%d min=%v max=%v, want 3/-7/12", a.N(), a.min, a.Max())
	}
	if math.Abs(a.Mean()-b.Mean()) > 1e-12 || math.Abs(a.Var()-b.Var()) > 1e-12 {
		t.Fatalf("merge into zero value changed moments: mean %v vs %v, var %v vs %v",
			a.Mean(), b.Mean(), a.Var(), b.Var())
	}
	// Merging an empty summary must be a no-op, not a min/max reset to 0.
	var empty Summary
	a.Merge(&empty)
	if a.N() != 3 || a.min != -7 || a.Max() != 12 {
		t.Fatalf("merge of empty summary mutated receiver: %v", a.String())
	}
}

func TestSummarySingleObservationStdDev(t *testing.T) {
	var s Summary
	s.Add(42)
	if got := s.StdDev(); got != 0 {
		t.Fatalf("single-observation stddev = %v, want 0 (n-1 denominator must not divide by zero)", got)
	}
	if s.min != 42 || s.Max() != 42 || s.Mean() != 42 {
		t.Fatalf("single-observation summary: %v", s.String())
	}
}

func TestSummaryStringEmpty(t *testing.T) {
	var s Summary
	got := (&s).String()
	want := "n=0 mean=0.00 sd=0.00 min=0.00 max=0.00"
	if got != want {
		t.Fatalf("empty String() = %q, want %q", got, want)
	}
}
