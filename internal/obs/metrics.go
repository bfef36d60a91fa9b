// Package obs is the observability substrate of the reproduction: a
// metrics registry (counters, gauges, fixed-bucket histograms
// keyed by name+labels) and per-session span tracing on the virtual clock.
//
// The paper evaluates QuaSAQ entirely through per-session timelines and
// outcome counters (Figures 5-7, the §5.2 overhead breakdown); obs gives
// every runtime layer one shared measurement substrate instead of ad-hoc
// per-experiment counters. A registry and its tracer belong to one
// simulated world and are driven by that world's goroutine, like the
// components that update them. Handles are nil-safe: an uninstrumented
// component holds nil handles and every operation on them is a no-op, so
// the hot paths carry no conditional wiring.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v uint64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (zero for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a signed integer metric that can move both ways (e.g. live
// session count, reserved bytes, summed latencies in nanoseconds).
type Gauge struct {
	v int64
}

// Add moves the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v += delta
	}
}

// Set replaces the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (zero for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// FloatGauge is a float64 metric (frames lost, fractional loss totals).
type FloatGauge struct {
	v float64
}

// Add accumulates delta. No-op on a nil gauge.
func (g *FloatGauge) Add(delta float64) {
	if g != nil {
		g.v += delta
	}
}

// Set replaces the value. No-op on a nil gauge.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (zero for nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram buckets observations into fixed upper-bound bins plus a +Inf
// overflow bin.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is +Inf
	sum    float64
	n      uint64
}

// Observe records one observation. No-op on a nil histogram.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i]++
	h.sum += x
	h.n++
}

// Registry holds every metric of one database instance, keyed by
// name+labels. Lookup is intended for wiring time; components cache the
// returned handles and update them directly.
type Registry struct {
	series map[string]*metricSeries
	order  []string // registration order of keys, for stable export
}

type metricSeries struct {
	name   string
	labels []string // k1, v1, k2, v2, ...
	kind   string   // counter | gauge | fgauge | histogram
	c      *Counter
	g      *Gauge
	f      *FloatGauge
	h      *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*metricSeries)}
}

func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		b.WriteByte('{')
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
		b.WriteByte('}')
	}
	return b.String()
}

func (r *Registry) lookup(name, kind string, labels []string, mk func() *metricSeries) *metricSeries {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, labels))
	}
	key := seriesKey(name, labels)
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", key, kind, s.kind))
		}
		return s
	}
	s := mk()
	s.name, s.labels, s.kind = name, append([]string(nil), labels...), kind
	r.series[key] = s
	r.order = append(r.order, key)
	return s
}

// Counter returns (creating on first use) the counter for name+labels.
// Labels are alternating key, value pairs. Nil registries return nil
// handles, whose operations are no-ops.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, "counter", labels, func() *metricSeries {
		return &metricSeries{c: &Counter{}}
	}).c
}

// Gauge returns (creating on first use) the integer gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, "gauge", labels, func() *metricSeries {
		return &metricSeries{g: &Gauge{}}
	}).g
}

// FloatGauge returns (creating on first use) the float gauge for
// name+labels.
func (r *Registry) FloatGauge(name string, labels ...string) *FloatGauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, "fgauge", labels, func() *metricSeries {
		return &metricSeries{f: &FloatGauge{}}
	}).f
}

// Histogram returns (creating on first use) the histogram for name+labels
// with the given ascending bucket upper bounds (a +Inf bucket is implicit).
// Bounds are fixed at first registration.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, "histogram", labels, func() *metricSeries {
		b := append([]float64(nil), bounds...)
		return &metricSeries{h: &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}}
	}).h
}

// merge folds another histogram's observations into h. Bucket layouts must
// match.
func (h *Histogram) merge(o *Histogram) error {
	if len(o.bounds) != len(h.bounds) {
		return fmt.Errorf("bucket count %d != %d", len(o.bounds), len(h.bounds))
	}
	for i, b := range o.bounds {
		if h.bounds[i] != b {
			return fmt.Errorf("bucket bound %g != %g", b, h.bounds[i])
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.n += o.n
	return nil
}

// Merge folds every series of another registry into r: counters, gauges,
// and float gauges add; histograms add bucket-wise (bounds must match).
// Series present only in o are created in r (label-set union), so a merged
// registry snapshots the same deterministic sorted order as a registry that
// observed everything itself. Merging a nil or empty registry is a no-op;
// bucket-layout conflicts are reported as errors, and a kind conflict
// panics exactly as re-registering the series would.
func (r *Registry) Merge(o *Registry) error {
	if r == nil || o == nil || r == o {
		if r == o && r != nil {
			return fmt.Errorf("obs: cannot merge a registry into itself")
		}
		return nil
	}
	for _, k := range o.order {
		s := o.series[k]
		switch s.kind {
		case "counter":
			r.Counter(s.name, s.labels...).Add(s.c.Value())
		case "gauge":
			r.Gauge(s.name, s.labels...).Add(s.g.Value())
		case "fgauge":
			r.FloatGauge(s.name, s.labels...).Add(s.f.Value())
		case "histogram":
			if err := r.Histogram(s.name, s.h.bounds, s.labels...).merge(s.h); err != nil {
				return fmt.Errorf("obs: merge histogram %s: %w", k, err)
			}
		}
	}
	return nil
}

// MetricSnapshot is one exported metric point.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`

	// Counter / gauge value (unset for histograms).
	Value float64 `json:"value"`

	// Histogram payload.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
}

// BucketSnapshot is one histogram bin: cumulative-style (Le is the upper
// bound; the last bucket's Le is +Inf rendered as "inf").
type BucketSnapshot struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Snapshot returns every metric, sorted by series key for deterministic
// export.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	keys := append([]string(nil), r.order...)
	sort.Strings(keys)
	out := make([]MetricSnapshot, 0, len(keys))
	for _, k := range keys {
		s := r.series[k]
		m := MetricSnapshot{Name: s.name, Kind: s.kind}
		if len(s.labels) > 0 {
			m.Labels = make(map[string]string, len(s.labels)/2)
			for i := 0; i+1 < len(s.labels); i += 2 {
				m.Labels[s.labels[i]] = s.labels[i+1]
			}
		}
		switch s.kind {
		case "counter":
			m.Value = float64(s.c.Value())
		case "gauge":
			m.Value = float64(s.g.Value())
		case "fgauge":
			m.Value = s.f.Value()
		case "histogram":
			h := s.h
			m.Sum, m.Count = h.sum, h.n
			m.Buckets = make([]BucketSnapshot, len(h.counts))
			for i, c := range h.counts {
				le := math.Inf(1)
				if i < len(h.bounds) {
					le = h.bounds[i]
				}
				m.Buckets[i] = BucketSnapshot{Le: le, Count: c}
			}
		}
		out = append(out, m)
	}
	return out
}

// WriteJSON exports the snapshot as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	snaps := r.Snapshot()
	// +Inf is not valid JSON; render it as the string "inf" via a shadow type.
	type jsonBucket struct {
		Le    string `json:"le"`
		Count uint64 `json:"count"`
	}
	type jsonMetric struct {
		Name    string            `json:"name"`
		Labels  map[string]string `json:"labels,omitempty"`
		Kind    string            `json:"kind"`
		Value   float64           `json:"value"`
		Buckets []jsonBucket      `json:"buckets,omitempty"`
		Sum     float64           `json:"sum,omitempty"`
		Count   uint64            `json:"count,omitempty"`
	}
	out := make([]jsonMetric, len(snaps))
	for i, m := range snaps {
		jm := jsonMetric{Name: m.Name, Labels: m.Labels, Kind: m.Kind, Value: m.Value, Sum: m.Sum, Count: m.Count}
		for _, b := range m.Buckets {
			le := "inf"
			if !math.IsInf(b.Le, 1) {
				le = fmt.Sprintf("%g", b.Le)
			}
			jm.Buckets = append(jm.Buckets, jsonBucket{Le: le, Count: b.Count})
		}
		out[i] = jm
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
