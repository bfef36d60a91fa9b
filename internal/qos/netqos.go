package qos

import (
	"fmt"
	"strconv"
	"strings"
)

// NetMetric identifies one network-level QoS metric of the paper's Table 1
// (network row). Each metric has a canonical "better" direction: delay,
// jitter and loss are lower-is-better, throughput is higher-is-better —
// the multi-metric directional-threshold pattern.
type NetMetric uint8

// Network metrics in violation-precedence order: loss dominates delay,
// delay dominates jitter, jitter dominates throughput. The guardian and
// Requirement.FirstViolated both report the highest-precedence breach.
const (
	NetLoss NetMetric = iota
	NetDelay
	NetJitter
	NetThroughput
)

// NetMetrics lists every metric in precedence order (loss > delay > jitter
// > throughput), for iteration by evaluators and experiments.
var NetMetrics = [...]NetMetric{NetLoss, NetDelay, NetJitter, NetThroughput}

// String names the metric as it appears in WITH QOS clauses.
func (m NetMetric) String() string {
	switch m {
	case NetLoss:
		return "loss"
	case NetDelay:
		return "delay"
	case NetJitter:
		return "jitter"
	case NetThroughput:
		return "throughput"
	default:
		return fmt.Sprintf("NetMetric(%d)", uint8(m))
	}
}

// ParseNetMetric resolves a case-insensitive metric name.
func ParseNetMetric(s string) (NetMetric, error) {
	for _, m := range NetMetrics {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("qos: unknown network metric %q", s)
}

// Direction says which side of a threshold bound is acceptable.
type Direction uint8

// Threshold directions. AtMost means observed values must stay at or below
// the bound (lower is better); AtLeast means at or above (higher is better).
const (
	AtMost Direction = iota
	AtLeast
)

// String renders the direction as its comparison operator.
func (d Direction) String() string {
	if d == AtLeast {
		return ">="
	}
	return "<="
}

// CanonicalDirection returns the direction a clause threshold on metric m
// must use: you bound delay, jitter and loss from above and throughput from
// below. The parser rejects the other operator.
func CanonicalDirection(m NetMetric) Direction {
	if m == NetThroughput {
		return AtLeast
	}
	return AtMost
}

// Threshold is one AND-composed term of a network QoS clause: an explicit
// metric, bound, and direction, e.g. {NetDelay, AtMost, 40} for "delay <= 40".
type Threshold struct {
	Metric NetMetric
	Dir    Direction
	Bound  float64
}

// Met reports whether an observed value v satisfies the threshold.
func (t Threshold) Met(v float64) bool {
	if t.Dir == AtLeast {
		return v >= t.Bound-1e-9
	}
	return v <= t.Bound+1e-9
}

// String renders the threshold in clause syntax, e.g. "delay <= 40". The
// output re-parses to an equal Threshold (round-trip property).
func (t Threshold) String() string {
	return fmt.Sprintf("%s %s %s", t.Metric, t.Dir, trimFloat(t.Bound))
}

// trimFloat formats a bound in plain decimal notation ("40", "0.05",
// "500000") — never scientific, which the clause lexer would reject — so
// String() output stays re-parseable.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// NetQoS is one observation point of the network-level metrics a session
// experiences: mean delay and jitter in milliseconds, loss as a fraction of
// offered frames, throughput in bytes per second. It is the qos-level
// mirror of transport.ObservedQoS windows (transport imports qos, so the
// evaluator lives here on a plain value type).
type NetQoS struct {
	DelayMillis   float64
	JitterMillis  float64
	Loss          float64
	ThroughputBps float64
}

// Value extracts the metric m from the observation.
func (o NetQoS) Value(m NetMetric) float64 {
	switch m {
	case NetLoss:
		return o.Loss
	case NetDelay:
		return o.DelayMillis
	case NetJitter:
		return o.JitterMillis
	case NetThroughput:
		return o.ThroughputBps
	default:
		return 0
	}
}

// NetThreshold returns the clause threshold on metric m, if any.
func (r Requirement) NetThreshold(m NetMetric) (Threshold, bool) {
	for _, t := range r.Net {
		if t.Metric == m {
			return t, true
		}
	}
	return Threshold{}, false
}

// Admits reports whether the observation o satisfies every network
// threshold of the requirement (AND composition). A requirement with no
// network terms admits everything.
func (r Requirement) Admits(o NetQoS) bool {
	_, violated := r.FirstViolated(o)
	return !violated
}

// FirstViolated returns the highest-precedence violated threshold (loss >
// delay > jitter > throughput) and true, or a zero Threshold and false if o
// meets every term. Evaluating in precedence order here is what lets the
// guardian, admission control and tests share one judgment instead of
// scattered comparisons.
func (r Requirement) FirstViolated(o NetQoS) (Threshold, bool) {
	for _, m := range NetMetrics {
		t, ok := r.NetThreshold(m)
		if !ok {
			continue
		}
		if !t.Met(o.Value(m)) {
			return t, true
		}
	}
	return Threshold{}, false
}

// normalizeNet orders thresholds canonically (precedence order) so that
// structurally equal clauses compare equal regardless of the order terms
// were written in the query.
func normalizeNet(ts []Threshold) []Threshold {
	if len(ts) == 0 {
		return nil
	}
	out := make([]Threshold, 0, len(ts))
	for _, m := range NetMetrics {
		for _, t := range ts {
			if t.Metric == m {
				out = append(out, t)
			}
		}
	}
	return out
}

// WithNet returns a copy of r whose network thresholds are ts in canonical
// (precedence) order. The parser and experiment tier tables both build
// clauses through this so equality is structural.
func (r Requirement) WithNet(ts ...Threshold) Requirement {
	r.Net = normalizeNet(ts)
	return r
}
