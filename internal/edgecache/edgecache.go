// Package edgecache implements the cooperative edge proxy-cache tier: each
// edge site prefix-caches the first GOPs of popular videos near its clients
// (the cooperative VoD proxy architecture — prefix caching slashes startup
// latency while the origin streams the tail), cooperates with its neighbor
// edges (neighbor lookup before origin fetch when a prefix is installed),
// and promotes sustained-popular prefixes to full replicas, either in place
// when the byte budget allows or by feeding demand into the dynamic
// replicator.
//
// All state advances on the simulation clock: popularity is counted as
// queries arrive, and a periodic tick admits the hottest uncached prefixes,
// evicts cold ones under space pressure, and halves every counter so the
// cache tracks the current workload, not all of history. Installs and
// evictions register/deregister partial replicas in the metadata directory,
// so each transition bumps the topology epoch exactly once and the plan
// cache invalidates correctly.
package edgecache

import (
	"sort"

	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/storage"
)

// Config tunes the edge tier's caching behavior. The zero value selects
// the defaults documented on each field.
type Config struct {
	// PrefixGOPs is how many leading GOPs each cached prefix holds
	// (default 8 — about five seconds of MPEG-1 video).
	PrefixGOPs int
	// ByteBudget caps each edge site's prefix store (default 64 MB).
	ByteBudget int64
	// Interval is the admission/eviction tick period (default 5 s).
	Interval simtime.Time
	// MinHits is the popularity a video must reach within one tick window
	// before its prefix is admitted (default 2).
	MinHits int
	// PromoteHits is the cumulative popularity at which a prefix is
	// promoted to a full replica (default 24).
	PromoteHits int
}

func (c Config) withDefaults() Config {
	if c.PrefixGOPs <= 0 {
		c.PrefixGOPs = 8
	}
	if c.ByteBudget <= 0 {
		c.ByteBudget = 64 << 20
	}
	if c.Interval <= 0 {
		c.Interval = simtime.Seconds(5)
	}
	if c.MinHits <= 0 {
		c.MinHits = 2
	}
	if c.PromoteHits <= 0 {
		c.PromoteHits = 24
	}
	return c
}

// entry is one installed prefix at one edge site.
type entry struct {
	rep   *metadata.Replica
	video *media.Video
	bytes int64
	hot   int // decayed popularity (halved each tick)
	life  int // cumulative popularity driving promotion
}

// siteCache is one edge site's prefix store.
type siteCache struct {
	name    string
	blobs   *storage.BlobStore
	store   *metadata.Store
	used    int64
	entries map[media.VideoID]*entry
	want    map[media.VideoID]int // popularity of not-yet-installed videos

	installs, evictions, hits, misses *obs.Counter
	neighborFills, originFills        *obs.Counter
	promotions                        *obs.Counter
	bytesGauge                        *obs.Gauge
}

// Stats is a point-in-time summary of the whole edge tier.
type Stats struct {
	Sites         int
	Prefixes      int   // prefixes currently installed (full promotions excluded)
	FullReplicas  int   // in-place promotions currently resident
	BytesUsed     int64 // resident bytes across all edge sites
	Hits          uint64
	Misses        uint64
	Installs      uint64
	Evictions     uint64
	NeighborFills uint64
	OriginFills   uint64
	Promotions    uint64
}

// HitRatio returns the fraction of observed queries whose home edge held
// the video at observation time.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Manager owns every edge site's prefix cache and their cooperation.
type Manager struct {
	sim    *simtime.Simulator
	dir    *metadata.Directory
	videos map[media.VideoID]*media.Video
	cfg    Config
	reg    *obs.Registry

	sites  []*siteCache // sorted by name; tick order
	byName map[string]*siteCache
	homes  map[string]string // query site -> its home edge site

	// promote, when set, receives demand for prefixes too popular to keep
	// partial but too large to hold fully at the edge — the hand-off into
	// replication.Dynamic.
	promote func(media.VideoID, media.LinkClass, int)

	started bool
	ticker  *simtime.Ticker
}

// New creates the edge-tier manager. reg may be nil (metrics become
// no-ops).
func New(sim *simtime.Simulator, dir *metadata.Directory, videos []*media.Video, reg *obs.Registry, cfg Config) *Manager {
	vm := make(map[media.VideoID]*media.Video, len(videos))
	for _, v := range videos {
		vm[v.ID] = v
	}
	return &Manager{
		sim:    sim,
		dir:    dir,
		videos: vm,
		cfg:    cfg.withDefaults(),
		reg:    reg,
		byName: make(map[string]*siteCache),
		homes:  make(map[string]string),
	}
}

// AddSite registers an edge site's blob store and metadata store with the
// cache. Sites tick in name order regardless of registration order.
func (m *Manager) AddSite(name string, blobs *storage.BlobStore, store *metadata.Store) {
	sc := &siteCache{
		name:          name,
		blobs:         blobs,
		store:         store,
		entries:       make(map[media.VideoID]*entry),
		want:          make(map[media.VideoID]int),
		installs:      m.reg.Counter("quasaq_edge_installs_total", "site", name),
		evictions:     m.reg.Counter("quasaq_edge_evictions_total", "site", name),
		hits:          m.reg.Counter("quasaq_edge_hits_total", "site", name),
		misses:        m.reg.Counter("quasaq_edge_misses_total", "site", name),
		neighborFills: m.reg.Counter("quasaq_edge_neighbor_fills_total", "site", name),
		originFills:   m.reg.Counter("quasaq_edge_origin_fills_total", "site", name),
		promotions:    m.reg.Counter("quasaq_edge_promotions_total", "site", name),
		bytesGauge:    m.reg.Gauge("quasaq_edge_bytes", "site", name),
	}
	m.sites = append(m.sites, sc)
	sort.Slice(m.sites, func(i, j int) bool { return m.sites[i].name < m.sites[j].name })
	m.byName[name] = sc
}

// MapClient declares edgeSite as the home edge for queries arriving at
// querySite; popularity observed there accrues to that edge's cache.
func (m *Manager) MapClient(querySite, edgeSite string) {
	m.homes[querySite] = edgeSite
}

// SetPromote installs the overflow-promotion sink (replication.Dynamic's
// demand feed).
func (m *Manager) SetPromote(fn func(media.VideoID, media.LinkClass, int)) {
	m.promote = fn
}

// Observe records one query for the video as seen from querySite,
// accruing popularity at its home edge and counting whether that edge
// already held the video (the edge hit ratio).
func (m *Manager) Observe(querySite string, id media.VideoID) {
	sc := m.byName[m.homes[querySite]]
	if sc == nil {
		return
	}
	m.arm()
	if e, ok := sc.entries[id]; ok {
		e.hot++
		e.life++
		sc.hits.Inc()
		return
	}
	sc.want[id]++
	sc.misses.Inc()
}

// Start schedules the periodic admission/eviction tick on the sim clock.
// The ticker parks itself once every popularity counter has decayed to
// zero — an idle cache leaves no pending events, so RunUntilIdle still
// terminates — and the next Observe re-arms it.
func (m *Manager) Start() {
	m.started = true
	m.arm()
}

func (m *Manager) arm() {
	if !m.started || m.ticker != nil {
		return
	}
	m.ticker = m.sim.Every(m.cfg.Interval, func() bool {
		m.tick()
		if m.warm() {
			return true
		}
		m.ticker = nil
		return false
	})
}

// warm reports whether any popularity counter is still non-zero; a
// cold cache parks its ticker until the next observation.
func (m *Manager) warm() bool {
	for _, sc := range m.sites {
		if len(sc.want) > 0 {
			return true
		}
		for _, e := range sc.entries {
			if e.hot > 0 {
				return true
			}
		}
	}
	return false
}

// tick runs one admission/eviction/promotion round across every edge
// site (in name order, so runs are deterministic) and then decays
// popularity.
func (m *Manager) tick() {
	for _, sc := range m.sites {
		m.admit(sc)
		m.promoteHot(sc)
	}
	for _, sc := range m.sites {
		m.decay(sc)
	}
}

// admit installs the hottest wanted prefixes that fit, evicting strictly
// colder residents to make room. The byte budget is checked before every
// blob create, so it is never exceeded.
func (m *Manager) admit(sc *siteCache) {
	type cand struct {
		id  media.VideoID
		hot int
	}
	var cands []cand
	for id, n := range sc.want {
		if n >= m.cfg.MinHits {
			cands = append(cands, cand{id, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hot != cands[j].hot {
			return cands[i].hot > cands[j].hot
		}
		return cands[i].id < cands[j].id
	})
	for _, c := range cands {
		v := m.videos[c.id]
		if v == nil {
			delete(sc.want, c.id)
			continue
		}
		rep, ok := m.sourceReplica(sc.name, c.id)
		if !ok {
			continue // nothing full to copy from anywhere
		}
		bytes := prefixBytes(v, rep.Variant, m.cfg.PrefixGOPs)
		if bytes > m.cfg.ByteBudget {
			continue
		}
		if !m.makeRoom(sc, bytes, c.hot) {
			continue
		}
		if m.install(sc, v, rep.Variant, bytes, c.hot) {
			delete(sc.want, c.id)
		}
	}
}

// sourceReplica picks the full replica whose variant the prefix copies:
// the highest-bitrate complete copy visible from the edge site, ties
// broken by the directory's deterministic (site, seq) order.
func (m *Manager) sourceReplica(from string, id media.VideoID) (*metadata.Replica, bool) {
	var best *metadata.Replica
	for _, r := range m.dir.Lookup(from, id) {
		if !r.Full() {
			continue
		}
		if best == nil || r.Variant.Bitrate > best.Variant.Bitrate {
			best = r
		}
	}
	return best, best != nil
}

// makeRoom evicts residents strictly colder than hot (coldest first, ties
// by video ID) until bytes fit in the budget. It reports whether the
// space was freed; nothing is evicted when it cannot be.
func (m *Manager) makeRoom(sc *siteCache, bytes int64, hot int) bool {
	if sc.used+bytes <= m.cfg.ByteBudget {
		return true
	}
	type victim struct {
		id media.VideoID
		e  *entry
	}
	var vs []victim
	freeable := m.cfg.ByteBudget - sc.used
	for id, e := range sc.entries {
		if e.hot < hot {
			vs = append(vs, victim{id, e})
			freeable += e.bytes
		}
	}
	if freeable < bytes {
		return false
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].e.hot != vs[j].e.hot {
			return vs[i].e.hot < vs[j].e.hot
		}
		return vs[i].id < vs[j].id
	})
	for _, v := range vs {
		if sc.used+bytes <= m.cfg.ByteBudget {
			break
		}
		m.evict(sc, v.id, v.e)
	}
	return sc.used+bytes <= m.cfg.ByteBudget
}

// install materializes the prefix: neighbor lookup decides where the
// bytes notionally came from, the blob lands in the edge's store, and the
// partial replica registers in the directory — one epoch bump.
func (m *Manager) install(sc *siteCache, v *media.Video, va media.Variant, bytes int64, hot int) bool {
	blob, err := sc.blobs.Create(bytes)
	if err != nil {
		return false
	}
	rep := &metadata.Replica{
		Video:      v.ID,
		Site:       sc.name,
		Variant:    va,
		Blob:       blob.ID,
		Profile:    replication.SampleProfile(v, va),
		PrefixGOPs: m.cfg.PrefixGOPs,
	}
	if err := sc.store.Add(rep); err != nil {
		sc.blobs.Delete(blob.ID) //nolint:errcheck // undo of a create that just succeeded
		return false
	}
	if m.neighborHolds(sc.name, v.ID) {
		sc.neighborFills.Inc()
	} else {
		sc.originFills.Inc()
	}
	sc.entries[v.ID] = &entry{rep: rep, video: v, bytes: bytes, hot: hot, life: hot}
	sc.used += bytes
	sc.installs.Inc()
	sc.bytesGauge.Set(sc.used)
	m.dir.Invalidate(v.ID)
	return true
}

// neighborHolds scans the other edge sites for a resident copy.
func (m *Manager) neighborHolds(except string, id media.VideoID) bool {
	for _, other := range m.sites {
		if other.name == except {
			continue
		}
		if _, ok := other.entries[id]; ok {
			return true
		}
	}
	return false
}

// evict removes a resident prefix: blob deleted, replica deregistered —
// one epoch bump.
func (m *Manager) evict(sc *siteCache, id media.VideoID, e *entry) {
	sc.store.Remove(e.rep)
	sc.blobs.Delete(e.rep.Blob) //nolint:errcheck // blob was created by install
	delete(sc.entries, id)
	sc.used -= e.bytes
	sc.evictions.Inc()
	sc.bytesGauge.Set(sc.used)
	m.dir.Invalidate(id)
}

// promoteHot upgrades sustained-popular prefixes: in place to a full edge
// replica when the budget allows, otherwise by handing the demand to the
// dynamic replicator so an origin site materializes the full copy.
func (m *Manager) promoteHot(sc *siteCache) {
	var ids []media.VideoID
	for id, e := range sc.entries {
		if e.life >= m.cfg.PromoteHits && !e.rep.Full() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := sc.entries[id]
		full := e.rep.Variant.SizeBytes(e.video)
		if sc.used-e.bytes+full <= m.cfg.ByteBudget {
			m.upgrade(sc, id, e, full)
		} else if m.promote != nil {
			if tier, ok := ladderTier(e.video, e.rep.Variant.Quality); ok {
				m.promote(id, tier, e.life)
				e.life = 0 // window restarts; don't re-feed every tick
			}
		}
	}
}

// upgrade swaps the prefix for a full replica at the same edge site in a
// single directory transition (one epoch bump).
func (m *Manager) upgrade(sc *siteCache, id media.VideoID, e *entry, full int64) {
	blob, err := sc.blobs.Create(full - e.bytes)
	if err != nil {
		return
	}
	// Model the tail fill as growing the resident footprint; the metadata
	// swap is what the planner sees.
	sc.store.Remove(e.rep)
	fullRep := &metadata.Replica{
		Video:   id,
		Site:    sc.name,
		Variant: e.rep.Variant,
		Blob:    blob.ID,
		Profile: e.rep.Profile,
	}
	if err := sc.store.Add(fullRep); err != nil {
		sc.store.Add(e.rep) //nolint:errcheck // restore the prefix we just removed
		sc.blobs.Delete(blob.ID)
		return
	}
	sc.blobs.Delete(e.rep.Blob) //nolint:errcheck // replaced by the full blob
	sc.used += full - e.bytes
	e.rep = fullRep
	e.bytes = full
	sc.promotions.Inc()
	sc.bytesGauge.Set(sc.used)
	m.dir.Invalidate(id)
}

// decay halves every popularity counter so the cache follows the current
// workload; zeroed want entries are forgotten.
func (m *Manager) decay(sc *siteCache) {
	for id, n := range sc.want {
		if n /= 2; n == 0 {
			delete(sc.want, id)
		} else {
			sc.want[id] = n
		}
	}
	for _, e := range sc.entries {
		e.hot /= 2
	}
}

// Stats summarizes the tier.
func (m *Manager) Stats() Stats {
	s := Stats{Sites: len(m.sites)}
	for _, sc := range m.sites {
		for _, e := range sc.entries {
			if e.rep.Full() {
				s.FullReplicas++
			} else {
				s.Prefixes++
			}
		}
		s.BytesUsed += sc.used
		s.Hits += sc.hits.Value()
		s.Misses += sc.misses.Value()
		s.Installs += sc.installs.Value()
		s.Evictions += sc.evictions.Value()
		s.NeighborFills += sc.neighborFills.Value()
		s.OriginFills += sc.originFills.Value()
		s.Promotions += sc.promotions.Value()
	}
	return s
}

// ladderTier maps a variant quality back onto the replication ladder.
func ladderTier(v *media.Video, q qos.AppQoS) (media.LinkClass, bool) {
	for _, c := range []media.LinkClass{media.LinkLAN, media.LinkT1, media.LinkDSL, media.LinkModem} {
		if media.LadderQuality(c, v.FrameRate) == q {
			return c, true
		}
	}
	return 0, false
}

// prefixBytes sums the coded size of the video's first n GOPs at the
// variant's quality.
func prefixBytes(v *media.Video, va media.Variant, n int) int64 {
	var total int64
	gop := v.GOP.Len()
	frames := v.Frames()
	for g := 0; g < n && g*gop < frames; g++ {
		total += va.GOPSize(v, g*gop)
	}
	return total
}
