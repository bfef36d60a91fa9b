package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// planStrings renders a plan sequence for order-sensitive comparison:
// String() pins replica, delivery site, drop, transcode and encryption, so
// equal string sequences mean equal plan sets in equal admission order.
func planStrings(plans []*Plan) []string {
	out := make([]string, len(plans))
	for i, p := range plans {
		out[i] = p.String()
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// planSet fetches the memoized candidate set, discarding the cache-hit flag.
func planSet(m *Manager, site string, v *media.Video, req qos.Requirement) []*Plan {
	plans, _ := m.planCandidates(site, v, req)
	return plans
}

// drain exhausts an admission iterator into a slice.
func drain(next func() (*Plan, bool)) []*Plan {
	var out []*Plan
	for p, ok := next(); ok; p, ok = next() {
		out = append(out, p)
	}
	return out
}

// eagerReference reproduces the seed's plan phase exactly: eager Generate,
// viability filter, full CostModel.Order, single-shot truncation.
func eagerReference(m *Manager, gen *Generator, model CostModel, site string, v *media.Video, req qos.Requirement) []*Plan {
	plans := gen.GenerateAll(site, v, req)
	live := m.viable(plans)
	ranked := model.Order(live, m.cluster.SiteUsage())
	if ss, ok := model.(singleShot); ok && ss.SingleShot() && len(ranked) > 1 {
		ranked = ranked[:1]
	}
	return ranked
}

// TestPipelineGoldenEquivalence: for randomized requirements and every
// cost model, the staged pipeline (cold cache, warm cache, and
// post-invalidation) yields exactly the same plan set and admission order
// as the seed's eager Generate+Order path.
func TestPipelineGoldenEquivalence(t *testing.T) {
	models := []struct {
		name string
		mk   func() (pipeline, reference CostModel)
	}{
		{"lrb", func() (CostModel, CostModel) { return LRB{}, LRB{} }},
		{"min-sum", func() (CostModel, CostModel) { return MinSum{}, MinSum{} }},
		{"static", func() (CostModel, CostModel) { return StaticCheapest{}, StaticCheapest{} }},
		// Random consumes its stream per Order call: pipeline and
		// reference each get an identically-seeded instance.
		{"random", func() (CostModel, CostModel) { return NewRandom(simtime.NewRand(99)), NewRandom(simtime.NewRand(99)) }},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			c, refGen := propCluster(t)
			pipeModel, refModel := tc.mk()
			m := NewManagerWithConfig(c, pipeModel, DefaultGeneratorConfig(c.Capacity()))
			videos := c.Engine.All()
			i := 0
			if err := quick.Check(func(rr randomRequirement) bool {
				req := qos.Requirement(rr)
				v := videos[i%len(videos)]
				site := c.Sites()[i%len(c.Sites())]
				i++
				want := planStrings(eagerReference(m, refGen, refModel, site, v, req))

				// Cold: first pipeline pass fills the cache.
				cold := planStrings(drain(m.admissionOrder(m.viable(planSet(m, site, v, req)))))
				if !equalStrings(want, cold) {
					t.Logf("cold mismatch for %s@%s %v:\n want %v\n got %v", v.ID, site, req, want, cold)
					return false
				}
				// Warm: a hit must do zero enumeration work and keep order.
				missesBefore := m.PlanCache().Stats().Misses
				want2 := planStrings(eagerReference(m, refGen, refModel, site, v, req))
				warm := planStrings(drain(m.admissionOrder(m.viable(planSet(m, site, v, req)))))
				if !equalStrings(want2, warm) {
					t.Logf("warm mismatch for %s@%s %v", v.ID, site, req)
					return false
				}
				if missesAfter := m.PlanCache().Stats().Misses; missesAfter != missesBefore {
					t.Logf("warm lookup enumerated plans (misses %d -> %d)", missesBefore, missesAfter)
					return false
				}
				// Post-invalidation: staling every entry forces
				// re-enumeration and must reproduce the same ranking.
				m.PlanCache().BumpLiveness()
				want3 := planStrings(eagerReference(m, refGen, refModel, site, v, req))
				inval := planStrings(drain(m.admissionOrder(m.viable(planSet(m, site, v, req)))))
				if !equalStrings(want3, inval) {
					t.Logf("post-invalidation mismatch for %s@%s %v", v.ID, site, req)
					return false
				}
				return true
			}, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBestFirstMatchesStableSort: heap pops replicate Order's stable sort
// even under cost ties.
func TestBestFirstMatchesStableSort(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, DefaultGeneratorConfig(c.Capacity()))
	v, _ := c.Engine.Video(1)
	plans := gen.GenerateAll("srv-a", v, qos.Requirement{MinColorDepth: 8})
	if len(plans) < 10 {
		t.Fatalf("space too small: %d", len(plans))
	}
	for _, model := range []interface {
		CostModel
		Coster
	}{LRB{}, MinSum{}, StaticCheapest{}} {
		ranked := model.Order(plans, c.SiteUsage())
		popped := drain(NewBestFirst(plans, model, c.SiteUsage()).Next)
		if len(ranked) != len(popped) {
			t.Fatalf("%s: %d ranked vs %d popped", fmt.Sprintf("%T", model), len(ranked), len(popped))
		}
		for i := range ranked {
			if ranked[i] != popped[i] {
				t.Fatalf("%s: position %d differs: %s vs %s", fmt.Sprintf("%T", model), i, ranked[i], popped[i])
			}
		}
	}
}

// TestServiceWarmCacheSkipsEnumeration: the acceptance criterion — a warm
// plan phase does zero enumeration work, asserted via the hit and miss
// counters and the identity of the admitted plan.
func TestServiceWarmCacheSkipsEnumeration(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	req := vcdRequirement()
	d1, err := m.Service("srv-a", 1, req, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d1.Cancel()
	st := m.PlanCache().Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 1 miss", st)
	}
	d2, err := m.Service("srv-a", 1, req, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d2.Cancel()
	st = m.PlanCache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warm stats = %+v, want 1 hit and still 1 miss", st)
	}
	// A fresh enumeration builds new plans: the warm query admitted the
	// very plan the cold one enumerated.
	if d2.Plan != d1.Plan {
		t.Fatalf("warm Service admitted a re-enumerated plan %s", d2.Plan)
	}
	// PlansGenerated still counts the candidate set per query (the §5.2
	// plans-per-query series is cache-transparent).
	if ms := m.Stats(); ms.PlansGenerated == 0 || ms.PlansGenerated%2 != 0 {
		t.Fatalf("PlansGenerated = %d, want equal contribution from both queries", ms.PlansGenerated)
	}
}

// TestPlanCacheEpochInvalidation: topology changes (directory epoch) and
// liveness changes (node crash/restart) each stale cached candidate sets.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	req := vcdRequirement()
	v, _ := c.Engine.Video(1)

	if _, ok := m.PlanCache().Get("srv-a", v.ID, req); ok {
		t.Fatal("empty cache reported a hit")
	}
	m.planCandidates("srv-a", v, req)
	if _, ok := m.PlanCache().Get("srv-a", v.ID, req); !ok {
		t.Fatal("fresh entry missed")
	}

	// Replica/topology change: the directory bumps its epoch.
	c.Dir.Invalidate(v.ID)
	if _, ok := m.PlanCache().Get("srv-a", v.ID, req); ok {
		t.Fatal("entry survived a topology epoch bump")
	}
	st := m.PlanCache().Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// Liveness change: node crash and restart each bump via the watcher.
	m.planCandidates("srv-a", v, req)
	c.Nodes["srv-b"].Fail()
	if _, ok := m.PlanCache().Get("srv-a", v.ID, req); ok {
		t.Fatal("entry survived a node crash")
	}
	m.planCandidates("srv-a", v, req)
	c.Nodes["srv-b"].Restore()
	if _, ok := m.PlanCache().Get("srv-a", v.ID, req); ok {
		t.Fatal("entry survived a node restart")
	}
	if st := m.PlanCache().Stats(); st.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", st.Invalidations)
	}
}

// TestPlanCacheKeyDiscriminates: distinct sites, videos and requirements
// (including Formats, the slice field canonicalized into the key) occupy
// distinct entries.
func TestPlanCacheKeyDiscriminates(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	v1, _ := c.Engine.Video(1)
	v2, _ := c.Engine.Video(2)
	base := vcdRequirement()
	withFmt := base
	withFmt.Formats = []qos.Format{qos.FormatMPEG1}

	m.planCandidates("srv-a", v1, base)
	m.planCandidates("srv-b", v1, base)
	m.planCandidates("srv-a", v2, base)
	m.planCandidates("srv-a", v1, withFmt)
	if st := m.PlanCache().Stats(); len(m.PlanCache().entries) != 4 || st.Misses != 4 {
		t.Fatalf("%d entries after stats %+v, want 4 distinct entries", len(m.PlanCache().entries), st)
	}
	if _, ok := m.PlanCache().Get("srv-a", v1.ID, withFmt); !ok {
		t.Fatal("formats-qualified key missed")
	}
}

// TestServiceRejectionCarriesCause: the admission-failure taxonomy — an
// ErrRejected wraps the last per-plan cause, so callers see *why* the
// cluster refused (here: gara's admission control).
func TestServiceRejectionCarriesCause(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	req := qos.Requirement{MinResolution: qos.ResDVD, MinFrameRate: 23}
	var rejectErr error
	for i := 0; i < 100; i++ {
		if _, err := m.Service("srv-a", 1, req, ServiceOptions{}); err != nil {
			rejectErr = err
			break
		}
	}
	if rejectErr == nil {
		t.Fatal("saturation never rejected")
	}
	if !errors.Is(rejectErr, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", rejectErr)
	}
	if !errors.Is(rejectErr, gara.ErrRejected) {
		t.Fatalf("err = %v does not carry the gara admission cause", rejectErr)
	}
}

// TestPlanPipelineRaceSafety interleaves, in a seeded order, eight
// callers' enumerate → GetOrFill loops over one generator and one cache,
// some of them staling the cache between calls. After every step the cache
// must agree with a one-key model: a lookup after a liveness bump (or the
// first one) fills, every other lookup hits, and misses equal fills.
func TestPlanPipelineRaceSafety(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, DefaultGeneratorConfig(c.Capacity()))
	cache := NewPlanCache(c.Dir)
	v, _ := c.Engine.Video(1)
	req := vcdRequirement()
	const callers, iterations = 8, 25
	var done [callers]int
	order := rand.New(rand.NewSource(5))
	fills, stale := uint64(0), true
	for step := 0; step < callers*iterations; step++ {
		w := order.Intn(callers)
		for done[w] == iterations {
			w = (w + 1) % callers
		}
		i := done[w]
		done[w]++
		plans := gen.GenerateAll("srv-a", v, req)
		if len(plans) == 0 {
			t.Fatalf("step %d: no plans generated", step)
		}
		filled := false
		cache.GetOrFill("srv-a", v.ID, req, func() []*Plan { filled = true; return plans })
		if filled {
			fills++
		}
		if filled != stale {
			t.Fatalf("step %d: lookup filled=%v, want %v", step, filled, stale)
		}
		stale = false
		if w%2 == 0 && i%10 == 9 {
			cache.BumpLiveness()
			stale = true
		}
		if st := cache.Stats(); st.Misses != fills || st.Hits+st.Misses != uint64(step+1) {
			t.Fatalf("step %d: stats %+v after %d fills", step, st, fills)
		}
	}
}
