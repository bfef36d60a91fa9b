package core

import (
	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
)

// PlanCache memoizes static candidate sets — the output of plan
// enumeration and static pruning — per (query site, video, requirement).
// This realizes the static/dynamic rule split of §3.4 as a pipeline stage
// boundary: everything upstream of the cache (the A1–A5 cross-product and
// the static pruning rules) depends only on the replica topology and the
// requirement, so it is computed once; everything downstream (liveness
// filtering, runtime costing, admission) depends on current system status
// and runs per query against the cached set.
//
// Entries are validated against two epochs at lookup time:
//
//   - the metadata Directory's topology epoch, which advances on every
//     replica or site change (offline replication, dynamic replication,
//     store registration, tier assignment);
//   - the cache's own liveness epoch, which the quality manager advances on
//     every node crash/restart (CrashSite, RestoreSite, fault injection) via
//     gara node watchers.
//
// A stale entry counts as an invalidation plus a miss and is re-filled, so
// failover re-planning after a crash re-enumerates exactly once and every
// subsequent retry — and every repeated workload query — skips enumeration
// entirely.
type PlanCache struct {
	dir       *metadata.Directory
	entries   map[planCacheKey]*planCacheEntry
	liveEpoch uint64

	// Outcome counters: standalone by default so an uninstrumented cache
	// still counts; Instrument rebinds them to registry-backed series.
	hits          *obs.Counter
	misses        *obs.Counter
	invalidations *obs.Counter
}

// planCacheKey is the comparable form of (querySite, video, requirement).
// qos.Requirement itself carries a Formats slice, so the formats are
// canonicalized into a string of format bytes in declaration order.
// Network thresholds (Requirement.Net) are deliberately NOT part of the
// key: plan enumeration depends only on app-level QoS, and the net clause
// is applied as a per-request filter over the cached candidates
// (netFeasible in admission.go), so clauses differing only in net terms
// share one cached plan set.
type planCacheKey struct {
	site    string
	video   media.VideoID
	minRes  qos.Resolution
	maxRes  qos.Resolution
	depth   int
	minFPS  float64
	maxFPS  float64
	formats string
	sec     qos.SecurityLevel
}

type planCacheEntry struct {
	plans     []*Plan
	dirEpoch  uint64
	liveEpoch uint64
}

func newPlanCacheKey(site string, id media.VideoID, req qos.Requirement) planCacheKey {
	k := planCacheKey{
		site:   site,
		video:  id,
		minRes: req.MinResolution,
		maxRes: req.MaxResolution,
		depth:  req.MinColorDepth,
		minFPS: req.MinFrameRate,
		maxFPS: req.MaxFrameRate,
		sec:    req.Security,
	}
	if len(req.Formats) > 0 {
		b := make([]byte, len(req.Formats))
		for i, f := range req.Formats {
			b[i] = byte(f)
		}
		k.formats = string(b)
	}
	return k
}

// PlanCacheStats counts cache outcomes for the §5.2 overhead analysis.
type PlanCacheStats struct {
	Hits          uint64 // lookups served from a fresh entry
	Misses        uint64 // lookups that had to enumerate (includes stale)
	Invalidations uint64 // stale entries evicted by an epoch mismatch
}

// NewPlanCache creates an empty cache over the directory's topology epoch.
func NewPlanCache(dir *metadata.Directory) *PlanCache {
	return &PlanCache{
		dir:           dir,
		entries:       make(map[planCacheKey]*planCacheEntry),
		hits:          &obs.Counter{},
		misses:        &obs.Counter{},
		invalidations: &obs.Counter{},
	}
}

// Instrument rebinds the cache's counters to registry-backed series. Call
// at construction time, before any lookups, so no counts are stranded in
// the standalone handles.
func (c *PlanCache) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.hits = reg.Counter("plancache_hits_total")
	c.misses = reg.Counter("plancache_misses_total")
	c.invalidations = reg.Counter("plancache_invalidations_total")
}

// BumpLiveness advances the liveness epoch, staling every entry. The
// quality manager calls it from node watchers on crash/restart; tests and
// operators may call it directly to force re-enumeration.
func (c *PlanCache) BumpLiveness() { c.liveEpoch++ }

// Get returns the cached candidate set for the key, or (nil, false) on a
// miss. A hit requires both epochs to match; a mismatch evicts the entry
// and reports a miss.
func (c *PlanCache) Get(site string, id media.VideoID, req qos.Requirement) ([]*Plan, bool) {
	return c.lookup(newPlanCacheKey(site, id, req))
}

// lookup counts one hit or miss for key, evicting a stale entry first.
func (c *PlanCache) lookup(key planCacheKey) ([]*Plan, bool) {
	e, ok := c.entries[key]
	if ok && (e.dirEpoch != c.dir.Epoch() || e.liveEpoch != c.liveEpoch) {
		delete(c.entries, key)
		ok = false
		c.invalidations.Inc()
	}
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return e.plans, true
}

// GetOrFill returns the candidate set for the key, enumerating it with fill
// on a miss and storing the result, so misses equal enumerations exactly.
// Both epochs are read before fill runs: a fill that bumps either one
// stores an entry that is already stale, and the next lookup re-enumerates
// it like any other stale entry. The second result reports whether the
// cache (rather than this call's own fill) served the set.
func (c *PlanCache) GetOrFill(site string, id media.VideoID, req qos.Requirement, fill func() []*Plan) ([]*Plan, bool) {
	key := newPlanCacheKey(site, id, req)
	if plans, ok := c.lookup(key); ok {
		return plans, true
	}
	e := &planCacheEntry{dirEpoch: c.dir.Epoch(), liveEpoch: c.liveEpoch}
	e.plans = fill()
	c.entries[key] = e
	return e.plans, false
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Invalidations: c.invalidations.Value(),
	}
}
