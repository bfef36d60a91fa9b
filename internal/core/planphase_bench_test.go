package core

import (
	"testing"

	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
)

// planPhaseWorld is the testbed the plan-phase measurements share: the
// standard corpus on three sites, LRB, and a loose requirement (big space).
func planPhaseWorld(tb testing.TB) (*Manager, *media.Video, qos.Requirement) {
	tb.Helper()
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.DefaultPolicy()); err != nil {
		tb.Fatal(err)
	}
	m := NewManager(c, LRB{})
	v, err := c.Engine.Video(1)
	if err != nil {
		tb.Fatal(err)
	}
	return m, v, qos.Requirement{MinColorDepth: 8}
}

// planPhase is the query-side plan phase: candidate set, liveness filter,
// best-first pop of the first plan.
func planPhase(m *Manager, v *media.Video, req qos.Requirement) *Plan {
	live := m.viable(planSet(m, "srv-a", v, req))
	p, _ := m.admissionOrder(live)()
	return p
}

// TestWarmPlanPhaseAllocs gates the warm plan phase — cache hit, viable,
// best-first pop — at 10 allocations: costing a plan reads its stored
// stages and allocates nothing, so what is left is the live slice, the
// heap, and the iterator.
func TestWarmPlanPhaseAllocs(t *testing.T) {
	m, v, req := planPhaseWorld(t)
	if planPhase(m, v, req) == nil { // prime the cache
		t.Fatal("no plan")
	}
	if n := testing.AllocsPerRun(100, func() { planPhase(m, v, req) }); n > 10 {
		t.Fatalf("warm plan phase = %v allocs/op, want <= 10", n)
	}
}

// TestColdPlanPhaseAllocs gates the cold plan phase — epoch bump, full
// re-enumeration, viable, best-first pop — at 200 allocations: each
// delivered quality is priced once per enumeration and plans are cut from
// slabs, so the count does not grow with the 360 candidates.
func TestColdPlanPhaseAllocs(t *testing.T) {
	m, v, req := planPhaseWorld(t)
	n := testing.AllocsPerRun(20, func() {
		m.PlanCache().BumpLiveness()
		planPhase(m, v, req)
	})
	if n > 200 {
		t.Fatalf("cold plan phase = %v allocs/op, want <= 200", n)
	}
}

// BenchmarkPlanPhase measures the query-side plan phase of the staged
// pipeline — candidate set, liveness filter, best-first pop — cold (every
// iteration re-enumerates after an epoch bump) versus warm (served from
// the candidate cache); the warm path must be measurably faster.
// EXPERIMENTS.md §5.2 records the four rows.
func BenchmarkPlanPhase(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		m, v, req := planPhaseWorld(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PlanCache().BumpLiveness() // stale the entry: full re-enumeration
			if planPhase(m, v, req) == nil {
				b.Fatal("no plan")
			}
		}
		b.ReportMetric(float64(m.PlanCache().Stats().Invalidations)/float64(b.N), "invalidations/op")
	})

	b.Run("warm", func(b *testing.B) {
		m, v, req := planPhaseWorld(b)
		planPhase(m, v, req) // prime the cache
		missesBefore := m.PlanCache().Stats().Misses
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if planPhase(m, v, req) == nil {
				b.Fatal("no plan")
			}
		}
		b.StopTimer()
		if missesAfter := m.PlanCache().Stats().Misses; missesAfter != missesBefore {
			b.Fatalf("warm path enumerated plans: misses %d -> %d", missesBefore, missesAfter)
		}
		b.ReportMetric(float64(m.PlanCache().Stats().Hits)/float64(b.N), "cache-hits/op")
	})

	// full-sort is the seed's admission ranking (CostModel.Order) against
	// the heap-based incremental pop, both on a warm candidate set: the
	// O(n log n) vs O(n + k log n) split in isolation.
	b.Run("full-sort", func(b *testing.B) {
		m, v, req := planPhaseWorld(b)
		plans := m.viable(planSet(m, "srv-a", v, req))
		var lrb LRB
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if lrb.Order(plans, m.cluster.SiteUsage())[0] == nil {
				b.Fatal("no plan")
			}
		}
	})
	b.Run("best-first-pop", func(b *testing.B) {
		m, v, req := planPhaseWorld(b)
		plans := m.viable(planSet(m, "srv-a", v, req))
		var lrb LRB
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p, ok := NewBestFirst(plans, lrb, m.cluster.SiteUsage()).Next(); !ok || p == nil {
				b.Fatal("no plan")
			}
		}
	})
}
