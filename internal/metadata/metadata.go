// Package metadata implements the Distributed Metadata Engine of §3.3: the
// mapping from logical video OIDs to the physical replicas spread over the
// cluster, each replica's quality metadata (application QoS), its
// distribution metadata (site, blob), and its QoS profile (the per-delivery
// resource vector measured offline by the QoS sampler).
//
// Metadata is distributed: each site's Store authoritatively describes the
// replicas that site hosts. A site resolves non-local metadata through the
// Directory, which "uses caching to accelerate non-local metadata
// accesses"; hit/miss counters expose the cache's effect.
package metadata

import (
	"fmt"
	"sort"

	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/storage"
)

// Tier classifies a site's role in the tiered topology: origin sites hold
// authoritative full replicas; edge proxy sites hold popularity-driven
// prefix caches near the clients.
type Tier int

const (
	// TierOrigin is the default tier: authoritative full-replica servers.
	TierOrigin Tier = iota
	// TierEdge marks a proxy-cache site holding prefix replicas.
	TierEdge
)

// String renders the tier name.
func (t Tier) String() string {
	if t == TierEdge {
		return "edge"
	}
	return "origin"
}

// Replica is one physical copy of a video: the unit the plan generator
// chooses among (elements of set A1 in Figure 2).
type Replica struct {
	Video   media.VideoID
	Site    string
	Seq     int // per-(video,site) sequence number
	Variant media.Variant
	Blob    storage.BlobID
	// Profile is the replica's QoS profile (§3.3): the resource vector one
	// plain delivery of this replica consumes, measured offline by the QoS
	// sampler and used for cost estimation.
	Profile qos.ResourceVector
	// PrefixGOPs is the number of leading GOPs this copy actually holds.
	// Zero means the copy is complete — a full replica is the degenerate
	// case of a prefix covering the whole video. A positive value marks a
	// partial (prefix) replica, servable only up to that GOP boundary.
	PrefixGOPs int
}

// Full reports whether the replica covers the entire video.
func (r *Replica) Full() bool { return r.PrefixGOPs == 0 }

// PrefixFrames returns the number of leading frames the replica holds, or
// the whole video's frame count for a full replica.
func (r *Replica) PrefixFrames(v *media.Video) int {
	total := v.Frames()
	if r.Full() {
		return total
	}
	frames := r.PrefixGOPs * v.GOP.Len()
	if frames > total {
		frames = total
	}
	return frames
}

// ID renders a stable replica identifier.
func (r *Replica) ID() string {
	return fmt.Sprintf("%s@%s#%d", r.Video, r.Site, r.Seq)
}

// Store is one site's authoritative metadata collection.
type Store struct {
	site    string
	byVideo map[media.VideoID][]*Replica
}

// NewStore creates the metadata store for a site.
func NewStore(site string) *Store {
	return &Store{site: site, byVideo: make(map[media.VideoID][]*Replica)}
}

// Site returns the owning site's name.
func (s *Store) Site() string { return s.site }

// Add registers a replica hosted at this site. The replica's Seq is
// assigned here.
func (s *Store) Add(r *Replica) error {
	if r.Site != s.site {
		return fmt.Errorf("metadata: replica site %q registered at store %q", r.Site, s.site)
	}
	r.Seq = len(s.byVideo[r.Video]) + 1
	s.byVideo[r.Video] = append(s.byVideo[r.Video], r)
	return nil
}

// Remove deregisters a replica previously added to this site's store.
// It reports whether the replica was present. Remaining replicas keep
// their Seq numbers, so replica IDs stay stable across evictions.
func (s *Store) Remove(r *Replica) bool {
	rs := s.byVideo[r.Video]
	for i, have := range rs {
		if have == r {
			s.byVideo[r.Video] = append(rs[:i:i], rs[i+1:]...)
			if len(s.byVideo[r.Video]) == 0 {
				delete(s.byVideo, r.Video)
			}
			return true
		}
	}
	return false
}

// Local returns this site's replicas of the video. The slice is the
// store's own, so read it and do not modify it; one goroutine owns a world
// (DESIGN.md §14), so no change can race the read.
func (s *Store) Local(id media.VideoID) []*Replica { return s.byVideo[id] }

// Directory federates the per-site stores. One Directory instance serves
// the whole simulated cluster; per-site caches model the paper's metadata
// caching.
type Directory struct {
	stores map[string]*Store
	caches map[string]map[media.VideoID][]*Replica
	tiers  map[string]Tier // sites absent from the map are TierOrigin

	remoteLookups uint64
	cacheHits     uint64

	// epoch is the topology epoch: it advances on every replica or site
	// change (store registration, tier assignment, replication invalidation).
	// Consumers that memoize anything derived from the replica topology —
	// the plan-candidate cache above all — key their entries on this value
	// and treat a mismatch as staleness.
	epoch uint64
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		stores: make(map[string]*Store),
		caches: make(map[string]map[media.VideoID][]*Replica),
		tiers:  make(map[string]Tier),
	}
}

// SetTier assigns a site's topology tier. Registering an edge site is a
// topology change, so the epoch advances; re-asserting the current tier is
// a no-op (no spurious plan-cache invalidation).
func (d *Directory) SetTier(site string, t Tier) {
	if d.tiers[site] == t {
		return
	}
	if t == TierOrigin {
		delete(d.tiers, site)
	} else {
		d.tiers[site] = t
	}
	d.epoch++
}

// Tier returns a site's topology tier; unknown sites default to origin.
func (d *Directory) Tier(site string) Tier { return d.tiers[site] }

// AddStore registers a site's store.
func (d *Directory) AddStore(s *Store) error {
	if _, dup := d.stores[s.Site()]; dup {
		return fmt.Errorf("metadata: duplicate store for site %q", s.Site())
	}
	d.stores[s.Site()] = s
	d.epoch++
	return nil
}

// Store returns a site's store.
func (d *Directory) Store(site string) (*Store, error) {
	s, ok := d.stores[site]
	if !ok {
		return nil, fmt.Errorf("metadata: no store for site %q", site)
	}
	return s, nil
}

// Sites returns the registered site names, sorted.
func (d *Directory) Sites() []string {
	out := make([]string, 0, len(d.stores))
	for s := range d.stores {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves every replica of the video cluster-wide, as seen from
// the querying site: local metadata is read directly, remote metadata goes
// through the site's cache.
func (d *Directory) Lookup(fromSite string, id media.VideoID) []*Replica {
	var out []*Replica
	if local, ok := d.stores[fromSite]; ok {
		out = append(out, local.Local(id)...)
	}
	if cached, ok := d.caches[fromSite][id]; ok {
		d.cacheHits++
		return append(out, cached...)
	}
	var remote []*Replica
	for site, s := range d.stores {
		if site == fromSite {
			continue
		}
		d.remoteLookups++
		remote = append(remote, s.Local(id)...)
	}
	sort.Slice(remote, func(i, j int) bool {
		if remote[i].Site != remote[j].Site {
			return remote[i].Site < remote[j].Site
		}
		return remote[i].Seq < remote[j].Seq
	})
	if d.caches[fromSite] == nil {
		d.caches[fromSite] = make(map[media.VideoID][]*Replica)
	}
	d.caches[fromSite][id] = remote
	return append(out, remote...)
}

// Invalidate drops cached entries for the video at every site; call after
// replication changes (dynamic replication/migration, §2 item 1).
func (d *Directory) Invalidate(id media.VideoID) {
	for _, c := range d.caches {
		delete(c, id)
	}
	d.epoch++
}

// Epoch returns the current topology epoch. The value is opaque; only
// equality is meaningful. Any replica/site change strictly increases it.
func (d *Directory) Epoch() uint64 { return d.epoch }

// CacheStats returns cumulative remote lookups and cache hits.
func (d *Directory) CacheStats() (remote, hits uint64) { return d.remoteLookups, d.cacheHits }
