package replication

import (
	"fmt"
	"sort"

	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/netsim"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// Dynamic is the online replication/migration manager sketched in §2 item
// 1: "dynamic online replication and migration has to be performed to make
// the system converge to the current status of user requests" (the paper
// defers the algorithm to follow-up work; this is a faithful, simple
// realization). It watches per-(video, tier) demand and admission failures,
// and periodically materializes the hottest missing replicas on the sites
// where they are absent — subject to each site's disk quota.
type Dynamic struct {
	sim    *simtime.Simulator
	dir    *metadata.Directory
	videos map[media.VideoID]*media.Video
	sites  []Site

	// demand counts accesses per (video, tier-resolution) since the last
	// rebalance; misses counts demand that found no local replica.
	demand map[demandKey]int

	// links, when set, makes materialization ship replica bytes over the
	// source site's outbound link instead of appearing instantly; the new
	// replica registers when the transfer completes.
	links    map[string]*netsim.Link
	inflight map[demandKey]bool

	created int
	ticker  *simtime.Ticker
}

// ReplicationRate caps the bandwidth one replica transfer consumes, so
// background replication does not starve streaming traffic.
const ReplicationRate = 800e3 // bytes per second

type demandKey struct {
	video media.VideoID
	tier  media.LinkClass
}

// NewDynamic creates an online replicator over an already-initialized
// directory. Call Observe from the serving path and Start to begin
// periodic rebalancing.
func NewDynamic(sim *simtime.Simulator, dir *metadata.Directory, videos []*media.Video, sites []Site) *Dynamic {
	vm := make(map[media.VideoID]*media.Video, len(videos))
	for _, v := range videos {
		vm[v.ID] = v
	}
	return &Dynamic{
		sim:      sim,
		dir:      dir,
		videos:   vm,
		sites:    sites,
		demand:   make(map[demandKey]int),
		inflight: make(map[demandKey]bool),
	}
}

// SetLinks provides the sites' outbound links; from then on materialization
// transfers replica bytes at ReplicationRate as best-effort traffic on the
// source site's link, sharing fairly with streams.
func (d *Dynamic) SetLinks(links map[string]*netsim.Link) { d.links = links }

// Observe records one request for the video at (approximately) the given
// quality requirement. The requirement is mapped to the cheapest ladder
// tier able to satisfy it — the tier a replica would need to exist at.
func (d *Dynamic) Observe(id media.VideoID, req qos.Requirement) {
	v, ok := d.videos[id]
	if !ok {
		return
	}
	tier, ok := cheapestSatisfyingTier(v, req)
	if !ok {
		return
	}
	d.demand[demandKey{id, tier}]++
}

// Boost injects n units of demand for the video at an exact ladder tier.
// This is the edge tier's promotion hand-off: a prefix too popular to stay
// partial but too large to hold fully at the edge turns into full-replica
// demand here, and the next rebalance materializes the copy on an origin
// site.
func (d *Dynamic) Boost(id media.VideoID, tier media.LinkClass, n int) {
	if _, ok := d.videos[id]; !ok || n <= 0 {
		return
	}
	d.demand[demandKey{id, tier}] += n
}

// cheapestSatisfyingTier scans the ladder bottom-up for the first tier
// whose quality satisfies the requirement.
func cheapestSatisfyingTier(v *media.Video, req qos.Requirement) (media.LinkClass, bool) {
	for _, c := range []media.LinkClass{media.LinkModem, media.LinkDSL, media.LinkT1, media.LinkLAN} {
		if req.SatisfiedBy(media.LadderQuality(c, v.FrameRate)) {
			return c, true
		}
	}
	return 0, false
}

// Start schedules a rebalance every interval, creating at most batch new
// replicas per round.
func (d *Dynamic) Start(interval simtime.Time, batch int) {
	if d.ticker != nil {
		return
	}
	if batch <= 0 {
		batch = 1
	}
	d.ticker = d.sim.Every(interval, func() bool {
		d.rebalance(batch)
		return true
	})
}

// Created returns the number of replicas materialized so far.
func (d *Dynamic) Created() int { return d.created }

// rebalance materializes up to batch of the hottest missing replicas and
// resets the demand window. A (video, tier) is "missing" at a site when the
// site has no replica at that exact tier quality; the site with the fewest
// stored bytes gets the new copy (a crude but effective storage-balance
// rule).
func (d *Dynamic) rebalance(batch int) int {
	type want struct {
		key demandKey
		n   int
	}
	var wants []want
	for k, n := range d.demand {
		wants = append(wants, want{k, n})
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].n != wants[j].n {
			return wants[i].n > wants[j].n
		}
		if wants[i].key.video != wants[j].key.video {
			return wants[i].key.video < wants[j].key.video
		}
		return wants[i].key.tier < wants[j].key.tier
	})
	made := 0
	for _, w := range wants {
		if made >= batch {
			break
		}
		if d.materialize(w.key) {
			made++
		}
	}
	d.demand = make(map[demandKey]int)
	return made
}

// materialize creates the replica for key at the emptiest site lacking it,
// returning false when every site already has it, a transfer for it is
// already in flight, or storage is full. With links configured the bytes
// travel over the source site's outbound link first.
func (d *Dynamic) materialize(key demandKey) bool {
	if d.inflight[key] {
		return false
	}
	v := d.videos[key.video]
	q := media.LadderQuality(key.tier, v.FrameRate)
	va := media.NewVariant(q)

	// Sites that already hold this tier, and a source site holding any
	// replica of the video (the transcoding source for the shipped copy).
	holders := map[string]bool{}
	sourceSite := ""
	for _, r := range d.dir.Lookup(d.sites[0].Name, key.video) {
		if r.Variant.Quality == q {
			holders[r.Site] = true
		}
		if sourceSite == "" || r.Variant.Bitrate > 0 {
			sourceSite = r.Site
		}
	}
	var candidates []Site
	for _, s := range d.sites {
		if !holders[s.Name] {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return false
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].Blobs.Used() < candidates[j].Blobs.Used()
	})
	site := candidates[0]

	register := func() bool {
		blob, err := site.Blobs.Create(va.SizeBytes(v))
		if err != nil {
			return false // quota full; migration/eviction is future work
		}
		store, err := d.dir.Store(site.Name)
		if err != nil {
			return false
		}
		rep := &metadata.Replica{
			Video:   key.video,
			Site:    site.Name,
			Variant: va,
			Blob:    blob.ID,
			Profile: SampleProfile(v, va),
		}
		if err := store.Add(rep); err != nil {
			return false
		}
		d.dir.Invalidate(key.video)
		d.created++
		return true
	}

	link := d.links[sourceSite]
	if link == nil || sourceSite == site.Name {
		return register()
	}
	d.inflight[key] = true
	netsim.StartTransfer(d.sim, link, va.SizeBytes(v), ReplicationRate, func(simtime.Time) {
		delete(d.inflight, key)
		register()
	})
	return true
}

// String summarizes state for logs.
func (d *Dynamic) String() string {
	return fmt.Sprintf("dynamic-replicator{created=%d pending-keys=%d}", d.created, len(d.demand))
}
