package core

import (
	"testing"

	"quasaq/internal/metadata"
)

// The liveness-epoch contract: every node state TRANSITION (crash, restore)
// bumps the cache's liveness epoch exactly once, and idempotent re-calls of
// Fail/Restore bump nothing — so a continuously refreshed cache entry pays
// exactly one invalidation per transition, never more.
func TestPlanCacheLivenessBumpsOncePerTransition(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	cache := m.PlanCache()
	req := vcdRequirement()

	put := func() { cache.GetOrFill("srv-a", 1, req, func() []*Plan { return []*Plan{} }) }
	hit := func() bool {
		_, ok := cache.Get("srv-a", 1, req)
		return ok
	}

	put()
	if !hit() {
		t.Fatal("fresh entry missed")
	}

	events := 0
	c.Nodes["srv-b"].Watch(func() { events++ })

	c.Nodes["srv-b"].Fail()
	if events != 1 {
		t.Fatalf("Fail fired %d watcher events, want 1", events)
	}
	if hit() {
		t.Fatal("entry survived a crash transition")
	}
	if inv := cache.Stats().Invalidations; inv != 1 {
		t.Fatalf("invalidations = %d after crash, want 1", inv)
	}

	// Idempotent re-crash: no transition, no bump — a refreshed entry stays.
	put()
	c.Nodes["srv-b"].Fail()
	if events != 1 {
		t.Fatalf("duplicate Fail fired a watcher event (%d)", events)
	}
	if !hit() {
		t.Fatal("duplicate Fail staled the cache without a transition")
	}

	c.Nodes["srv-b"].Restore()
	if events != 2 {
		t.Fatalf("Restore fired %d watcher events, want 2", events)
	}
	if hit() {
		t.Fatal("entry survived a restore transition")
	}

	// Idempotent re-restore: again no bump.
	put()
	c.Nodes["srv-b"].Restore()
	if events != 2 {
		t.Fatalf("duplicate Restore fired a watcher event (%d)", events)
	}
	if !hit() {
		t.Fatal("duplicate Restore staled the cache without a transition")
	}
	if inv := cache.Stats().Invalidations; inv != 2 {
		t.Fatalf("invalidations = %d after one full crash/restore cycle, want 2", inv)
	}
}

// End-to-end: the first query enumerates (miss), the repeat is served from
// the cache (hit), and a crash/restore cycle forces exactly one
// re-enumeration per transition on the next query.
func TestPlanCacheReEnumeratesAfterCrashRestore(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	req := vcdRequirement()
	serve := func() {
		t.Helper()
		if _, err := m.Service("srv-a", 1, req, ServiceOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	serve()
	s := m.PlanCache().Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first query: misses=%d hits=%d, want 1/0", s.Misses, s.Hits)
	}
	serve()
	s = m.PlanCache().Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("repeat query: misses=%d hits=%d, want 1/1", s.Misses, s.Hits)
	}

	// srv-b is not the query or delivery site for this plan, but any node
	// transition stales the whole candidate cache (the uniform epoch rule).
	c.Nodes["srv-b"].Fail()
	c.Nodes["srv-b"].Restore()
	serve()
	s = m.PlanCache().Stats()
	if s.Misses != 2 || s.Invalidations != 1 {
		t.Fatalf("post-cycle query: misses=%d invalidations=%d, want 2/1", s.Misses, s.Invalidations)
	}
	serve()
	if s = m.PlanCache().Stats(); s.Hits != 2 {
		t.Fatalf("post-cycle repeat: hits=%d, want 2", s.Hits)
	}
}

// A store registered while the cache is warm is a new delivery site for
// every cached key (AllowRemote relays and transcodes through any origin
// site), so AddStore's topology-epoch bump must stale the entry: the next
// lookup re-enumerates and serves the grown set.
func TestPlanCacheAddStoreStalesCandidates(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	v, _ := c.Engine.Video(1)
	req := vcdRequirement()
	fill := func() []*Plan { return m.Generator().GenerateAll("srv-a", v, req) }

	before, _ := m.PlanCache().GetOrFill("srv-a", v.ID, req, fill)
	if err := c.Dir.AddStore(metadata.NewStore("srv-d")); err != nil {
		t.Fatal(err)
	}
	got, hit := m.PlanCache().GetOrFill("srv-a", v.ID, req, fill)
	if hit {
		t.Fatal("cache served the candidate set enumerated before srv-d joined")
	}
	if want := planStrings(fill()); !equalStrings(planStrings(got), want) {
		t.Fatalf("cached set differs from a fresh enumeration:\n got %v\nwant %v", planStrings(got), want)
	}
	if equalStrings(planStrings(got), planStrings(before)) {
		t.Fatal("srv-d added no candidate, so this world cannot show a stale entry")
	}
}
