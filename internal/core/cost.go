package core

import (
	"sort"

	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// SiteUsage reports a site's current resource usage and capacity: the
// bucket fillings U_i and heights R_i of Eq. 1.
type SiteUsage func(site string) (usage, capacity qos.ResourceVector)

// CostModel orders candidate plans best-first under current system status.
// The runtime cost evaluator "sorts the plans in ascending cost order ...
// the first plan in this order that satisfies the QoS requirements is used"
// (§3.4); admission control then walks the order.
type CostModel interface {
	Order(plans []*Plan, usage SiteUsage) []*Plan
}

// Coster is the incremental extension of CostModel: models that can score
// one plan in isolation support heap-based best-first selection, so
// admission pops the next-cheapest plan on demand instead of sorting the
// whole candidate set. Every ranked model here implements it; Random does
// not (its "cost" is a draw over the whole set). Order remains on every
// model for the §5.2 full-ranking baselines.
type Coster interface {
	Cost(p *Plan, usage SiteUsage) float64
}

// planCost is a helper: stable sort of plans by a scalar cost.
func sortByCost(plans []*Plan, cost func(*Plan) float64) []*Plan {
	type scored struct {
		p *Plan
		c float64
	}
	s := make([]scored, len(plans))
	for i, p := range plans {
		s[i] = scored{p, cost(p)}
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].c < s[j].c })
	out := make([]*Plan, len(plans))
	for i := range s {
		out[i] = s[i].p
	}
	return out
}

// LRB is the Lowest Resource Bucket cost model (§3.4, Eq. 1): each plan is
// charged max_i (U_i + r_i) / R_i over every bucket it touches — for remote
// plans, the buckets of both the source and the delivery site. The plan
// leading to the smallest maximum bucket height wins, which evenly
// distributes the filling rate of all buckets: "since no queries can be
// served if we have an overflowing bucket, we should prevent any single
// bucket from growing faster than the others".
type LRB struct{}

// Cost evaluates Eq. 1 for one plan under the given usage: the maximum
// bucket fill over every reservation stage of the plan. Farm-offloaded
// plans thereby charge the farm tier's CPU bucket too, so a congested farm
// prices its candidates out.
func (LRB) Cost(p *Plan, usage SiteUsage) float64 {
	var f float64
	for _, st := range p.ReservationStages() {
		u, c := usage(st.Site)
		if sf := st.Vec.MaxFillRatio(u, c); sf > f {
			f = sf
		}
	}
	return f
}

// Order sorts ascending by Eq. 1.
func (m LRB) Order(plans []*Plan, usage SiteUsage) []*Plan {
	return sortByCost(plans, func(p *Plan) float64 { return m.Cost(p, usage) })
}

// Random is the baseline evaluator of §5.2: "a simple randomized algorithm
// [that] randomly selects one execution plan from the search space" — "a
// frequently-used query optimization strategy with fair performance". It
// picks exactly one plan: if that plan cannot be admitted the query is
// rejected, unlike the ranked models which walk their order.
type Random struct {
	rng *simtime.Rand
}

// NewRandom creates the randomized evaluator with its own stream.
func NewRandom(rng *simtime.Rand) *Random { return &Random{rng: rng} }

// Order returns the plans in uniformly random order.
func (m *Random) Order(plans []*Plan, _ SiteUsage) []*Plan {
	out := make([]*Plan, len(plans))
	perm := m.rng.Perm(len(plans))
	for i, j := range perm {
		out[i] = plans[j]
	}
	return out
}

// SingleShot marks the model as try-one-plan-only.
func (*Random) SingleShot() bool { return true }

// singleShot is implemented by cost models whose ranking must not be
// walked: only the first plan is attempted.
type singleShot interface{ SingleShot() bool }

// MinSum is an ablation model: charge the *sum* of normalized bucket
// demands instead of the maximum. It prefers globally light plans but,
// unlike LRB, ignores how full each bucket already is on a per-axis basis.
type MinSum struct{}

// Cost is the summed normalized bucket demand of one plan, over every
// reservation stage.
func (MinSum) Cost(p *Plan, usage SiteUsage) float64 {
	var c float64
	for _, st := range p.ReservationStages() {
		_, sc := usage(st.Site)
		c += st.Vec.SumRatio(sc)
	}
	return c
}

// Order sorts ascending by summed fill contribution.
func (m MinSum) Order(plans []*Plan, usage SiteUsage) []*Plan {
	return sortByCost(plans, func(p *Plan) float64 { return m.Cost(p, usage) })
}

// StaticCheapest is an ablation model that ignores runtime contention
// entirely — the "static cost estimates in traditional D-DBMS" the paper
// argues against (§2 item 4): plans are ranked by their demand relative to
// an empty site.
type StaticCheapest struct{}

// Cost is the plan's fill ratio against empty sites, maximized over every
// reservation stage.
func (StaticCheapest) Cost(p *Plan, usage SiteUsage) float64 {
	var zero qos.ResourceVector
	var c float64
	for _, st := range p.ReservationStages() {
		_, sc := usage(st.Site)
		if sf := st.Vec.MaxFillRatio(zero, sc); sf > c {
			c = sf
		}
	}
	return c
}

// Order sorts ascending by zero-usage fill ratio.
func (m StaticCheapest) Order(plans []*Plan, usage SiteUsage) []*Plan {
	return sortByCost(plans, func(p *Plan) float64 { return m.Cost(p, usage) })
}
