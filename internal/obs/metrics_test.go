package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("sessions_active")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge after Set = %d, want -7", g.Value())
	}
	f := r.FloatGauge("frames_lost")
	f.Add(1.5)
	f.Add(2.25)
	if f.Value() != 3.75 {
		t.Fatalf("fgauge = %v, want 3.75", f.Value())
	}
}

func TestLabelsKeySeparateSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("frames_sent_total", "site", "srv-a")
	b := r.Counter("frames_sent_total", "site", "srv-b")
	if a == b {
		t.Fatal("distinct label sets share a handle")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("label series leaked into each other")
	}
	// Same name+labels resolves to the same cached handle.
	if r.Counter("frames_sent_total", "site", "srv-a") != a {
		t.Fatal("repeat lookup returned a new handle")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list accepted")
		}
	}()
	r.Counter("x", "site")
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	f := r.FloatGauge("c")
	h := r.Histogram("d", []float64{1, 10})
	c.Inc()
	c.Add(2)
	g.Add(1)
	g.Set(5)
	f.Add(1.5)
	f.Set(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || f.Value() != 0 || h != nil {
		t.Fatal("nil handles recorded values")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_ms", []float64{1, 10, 100})
	for _, x := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(x)
	}
	if h.n != 5 || h.sum != 556.5 {
		t.Fatalf("count/sum = %d/%v, want 5/556.5", h.n, h.sum)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Upper bounds are inclusive (SearchFloat64s places x==bound in that
	// bucket); the +Inf bin catches the overflow.
	want := []uint64{2, 1, 1, 1}
	for i, b := range snap[0].Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b.Count, want[i])
		}
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Inc()
	r.Gauge("aa_live").Set(2)
	r.Counter("mm_total", "site", "srv-b").Add(3)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != 3 {
		t.Fatalf("series = %d, want 3", len(s1))
	}
	if s1[0].Name != "aa_live" || s1[1].Name != "mm_total" || s1[2].Name != "zz_total" {
		t.Fatalf("snapshot not key-sorted: %s %s %s", s1[0].Name, s1[1].Name, s1[2].Name)
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || s1[i].Value != s2[i].Value {
			t.Fatal("repeat snapshots diverge")
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries_total").Add(7)
	r.Histogram("lat_ms", []float64{1}, "site", "srv-a").Observe(3)
	var j bytes.Buffer
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"queries_total"`) || !strings.Contains(j.String(), `"le": "inf"`) {
		t.Fatalf("JSON export missing series or inf bucket:\n%s", j.String())
	}
}
