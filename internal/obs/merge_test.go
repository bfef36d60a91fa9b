package obs

import (
	"bytes"
	"reflect"
	"testing"
)

func TestMergeFoldsEveryKind(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("queries_total").Add(3)
	b.Counter("queries_total").Add(4)
	a.Gauge("sessions_active").Add(2)
	b.Gauge("sessions_active").Add(-1)
	a.FloatGauge("frames_lost").Add(1.5)
	b.FloatGauge("frames_lost").Add(0.25)
	bounds := []float64{1, 10}
	a.Histogram("latency_ms", bounds).Observe(0.5)
	a.Histogram("latency_ms", bounds).Observe(5)
	b.Histogram("latency_ms", bounds).Observe(5)
	b.Histogram("latency_ms", bounds).Observe(50)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if v := a.Counter("queries_total").Value(); v != 7 {
		t.Fatalf("counter = %d, want 7", v)
	}
	if v := a.Gauge("sessions_active").Value(); v != 1 {
		t.Fatalf("gauge = %d, want 1", v)
	}
	if v := a.FloatGauge("frames_lost").Value(); v != 1.75 {
		t.Fatalf("fgauge = %v, want 1.75", v)
	}
	h := a.Histogram("latency_ms", bounds)
	if h.n != 4 || h.sum != 60.5 {
		t.Fatalf("histogram n=%d sum=%v, want 4/60.5", h.n, h.sum)
	}
	if want := []uint64{1, 2, 1}; !reflect.DeepEqual(h.counts, want) {
		t.Fatalf("bucket counts = %v, want %v", h.counts, want)
	}
	// The source registry is untouched.
	if v := b.Counter("queries_total").Value(); v != 4 {
		t.Fatalf("source counter mutated: %d", v)
	}
}

func TestMergeUnionsLabelSets(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("frames_sent_total", "site", "srv-a").Add(10)
	b.Counter("frames_sent_total", "site", "srv-b").Add(20)
	b.Counter("frames_sent_total", "site", "srv-a").Add(1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if v := a.Counter("frames_sent_total", "site", "srv-a").Value(); v != 11 {
		t.Fatalf("srv-a = %d, want 11", v)
	}
	if v := a.Counter("frames_sent_total", "site", "srv-b").Value(); v != 20 {
		t.Fatalf("srv-b = %d, want 20 (series should be created by merge)", v)
	}
}

// After a merge, export order must equal the order of a registry that saw
// all the series itself: the snapshot sorts by series key either way.
func TestMergeSnapshotOrderDeterministic(t *testing.T) {
	mk := func(names ...string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			r.Counter(n).Inc()
		}
		return r
	}
	a := mk("zeta", "alpha")
	b := mk("mid", "alpha")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	direct := mk("zeta", "alpha", "mid")
	direct.Counter("alpha").Inc() // match merged value

	var merged, ref bytes.Buffer
	if err := a.WriteJSON(&merged); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteJSON(&ref); err != nil {
		t.Fatal(err)
	}
	if merged.String() != ref.String() {
		t.Fatalf("merged export differs from direct export:\n%s\nvs\n%s", merged.String(), ref.String())
	}
}

func TestMergeHistogramBoundsMismatch(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("latency_ms", []float64{1, 2}).Observe(1)
	b.Histogram("latency_ms", []float64{1, 5}).Observe(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("expected bounds-mismatch error")
	}
}

func TestMergeNilAndSelf(t *testing.T) {
	var nilReg *Registry
	if err := nilReg.Merge(NewRegistry()); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Merge(r); err == nil {
		t.Fatal("merging a registry into itself must error")
	}
}

// The general union-sum property over full snapshots: for every kind, the
// merged registry's snapshot is keyed by the union of both inputs' series,
// with counter/gauge values (and histogram counts/sums) added where a series
// appears on both sides. This is the label-union contract TestMergeUnionsLabelSets
// spot-checks, verified generically over every exported series.
func TestMergeSnapshotIsUnionSum(t *testing.T) {
	build := func(siteA, siteB string, scale float64) *Registry {
		r := NewRegistry()
		r.Counter("ctrl_msgs_total", "op", "prepare").Add(uint64(10 * scale))
		r.Counter("ctrl_msgs_total", "op", "commit").Add(uint64(20 * scale))
		r.Counter("leases_total", "site", siteA).Add(uint64(3 * scale))
		r.Counter("leases_total", "site", siteB).Add(uint64(4 * scale))
		r.Gauge("sessions_active").Add(int64(5 * scale))
		r.FloatGauge("frames_lost").Add(scale / 2)
		h := r.Histogram("latency_ms", []float64{1, 10}, "site", siteA)
		h.Observe(scale)
		return r
	}
	// srv-b appears on both sides; srv-a and srv-c on one each.
	a := build("srv-a", "srv-b", 1)
	b := build("srv-c", "srv-b", 10)

	index := func(r *Registry) map[string]MetricSnapshot {
		m := map[string]MetricSnapshot{}
		for _, s := range r.Snapshot() {
			key := s.Name
			for k, v := range s.Labels {
				key += "|" + k + "=" + v
			}
			m[key] = s
		}
		return m
	}
	ia, ib := index(a), index(b)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	merged := index(a)

	union := map[string]bool{}
	for k := range ia {
		union[k] = true
	}
	for k := range ib {
		union[k] = true
	}
	if len(merged) != len(union) {
		t.Fatalf("merged snapshot has %d series, union has %d", len(merged), len(union))
	}
	for k := range union {
		got, ok := merged[k]
		if !ok {
			t.Errorf("series %s missing after merge", k)
			continue
		}
		var wantV, wantSum float64
		var wantN uint64
		for _, side := range []map[string]MetricSnapshot{ia, ib} {
			if s, ok := side[k]; ok {
				wantV += s.Value
				wantSum += s.Sum
				wantN += s.Count
			}
		}
		if got.Value != wantV || got.Sum != wantSum || got.Count != wantN {
			t.Errorf("series %s: value/sum/count = %v/%v/%d, want %v/%v/%d",
				k, got.Value, got.Sum, got.Count, wantV, wantSum, wantN)
		}
	}
}
