package core

import (
	"fmt"

	"quasaq/internal/broker"
	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/storage"
	"quasaq/internal/transcode"
	"quasaq/internal/vdbms"
)

// Cluster assembles the distributed substrate QuaSAQ runs on: one gara
// node (CPU scheduler + outbound link + counters) and one blob store per
// site, the federated metadata directory, and the VDBMS content engine.
// The paper's deployment had three such servers on separate Ethernets (§5).
type Cluster struct {
	Sim    *simtime.Simulator
	Nodes  map[string]*gara.Node
	Blobs  map[string]*storage.BlobStore
	Dir    *metadata.Directory
	Engine *vdbms.Engine

	// Obs is the cluster-wide metrics registry: every layer (gara nodes,
	// links, CPU schedulers, transport, quality manager, plan cache)
	// registers its counters here, so exports and DB.Stats read one source
	// of truth.
	Obs *obs.Registry

	// Ctrl is the control-RPC net carrying PREPARE/COMMIT/ABORT between
	// sites, and Brokers the per-site QoS broker actors owning the nodes.
	// The default config is synchronous (zero latency, no loss): identical
	// behaviour to direct reservation calls. ConfigureControl switches the
	// cluster to message passing.
	Ctrl    *broker.Net
	Brokers map[string]*broker.Broker

	// Farm is the shared elastic transcoding tier (nil until EnableFarm).
	// Its pseudo-site FarmSite joins Nodes and Brokers — so reservations,
	// usage queries and partition checks treat it like any site — but not
	// siteNames: it stores no replicas and serves no deliveries.
	Farm *transcode.Farm

	siteNames []string
	edgeSites []string   // edge proxy sites, configuration order (EnableEdgeTier)
	mActive   *obs.Gauge // live streaming sessions (deliveries, not leases)
	mStarted  *obs.Counter
	mEnded    *obs.Counter
}

// sessionStarted and sessionEnded maintain the outstanding-session count;
// every service path (QuaSAQ, VDBMS, VDBMS+QoS API) calls them exactly once
// per delivery.
func (c *Cluster) sessionStarted() {
	c.mStarted.Inc()
	c.mActive.Add(1)
}

func (c *Cluster) sessionEnded() {
	c.mEnded.Inc()
	c.mActive.Add(-1)
}

// NewCluster builds a cluster with the given sites, each with identical
// capacity.
func NewCluster(sim *simtime.Simulator, sites []string, capacity gara.NodeCapacity) (*Cluster, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("core: no sites")
	}
	reg := obs.NewRegistry()
	c := &Cluster{
		Sim:       sim,
		Nodes:     make(map[string]*gara.Node, len(sites)),
		Blobs:     make(map[string]*storage.BlobStore, len(sites)),
		Dir:       metadata.NewDirectory(),
		Engine:    vdbms.NewEngine(),
		Obs:       reg,
		siteNames: append([]string(nil), sites...),
		mActive:   reg.Gauge("quasaq_sessions_active"),
		mStarted:  reg.Counter("quasaq_sessions_started_total"),
		mEnded:    reg.Counter("quasaq_sessions_ended_total"),
	}
	for _, s := range sites {
		if _, dup := c.Nodes[s]; dup {
			return nil, fmt.Errorf("core: duplicate site %q", s)
		}
		n := gara.NewNode(sim, s, capacity)
		n.Instrument(reg)
		c.Nodes[s] = n
		c.Blobs[s] = storage.NewBlobStore(0)
	}
	net, err := broker.NewNet(sim, broker.Config{}, reg)
	if err != nil {
		return nil, err
	}
	c.Ctrl = net
	// A site whose node crashed or whose link is partitioned is cut off
	// from control traffic too — the same faults that kill streams stall
	// prepares and commits.
	c.Ctrl.SetPartitionCheck(func(site string) bool {
		n, ok := c.Nodes[site]
		return ok && (n.Down() || n.Link().Down())
	})
	c.Brokers = make(map[string]*broker.Broker, len(sites))
	for _, s := range sites {
		b := broker.New(sim, c.Nodes[s], reg)
		c.Brokers[s] = b
		c.Ctrl.Register(s, b.Handle)
	}
	return c, nil
}

// ConfigureControl swaps the control-plane parameters (latency, timeout,
// retry, loss, prepare TTL). The zero broker.Config restores the
// synchronous direct-call path.
func (c *Cluster) ConfigureControl(cfg broker.Config) error {
	return c.Ctrl.SetConfig(cfg)
}

// FarmSite is the pseudo-site name of the shared transcoding tier in the
// cluster's node and broker tables.
const FarmSite = "farm"

// EnableFarm attaches the elastic transcoding tier: a Farm on the sim
// clock, fronted by a gara node whose CPU capacity is the farm's peak
// transcode throughput (so reservations of offloaded stages book against
// the fleet's envelope) and a broker of its own, so the farm participates
// in two-phase reservations like any site. One farm per cluster; the name
// FarmSite must be free.
func (c *Cluster) EnableFarm(cfg transcode.FarmConfig) (*transcode.Farm, error) {
	if c.Farm != nil {
		return nil, fmt.Errorf("core: farm already enabled")
	}
	if _, taken := c.Nodes[FarmSite]; taken {
		return nil, fmt.Errorf("core: site name %q is reserved for the farm", FarmSite)
	}
	farm, err := transcode.NewFarm(c.Sim, cfg, c.Obs)
	if err != nil {
		return nil, err
	}
	// Only the CPU axis is real: the farm neither stores replicas nor
	// serves clients, so its other buckets are effectively unbounded.
	cap := gara.NodeCapacity{
		CPUCores:      farm.CPUCapacity(),
		NetBandwidth:  1e15,
		DiskBandwidth: 1e15,
		Memory:        1 << 40,
	}
	n := gara.NewNode(c.Sim, FarmSite, cap)
	n.Instrument(c.Obs)
	c.Nodes[FarmSite] = n
	b := broker.New(c.Sim, n, c.Obs)
	c.Brokers[FarmSite] = b
	c.Ctrl.Register(FarmSite, b.Handle)
	c.Farm = farm
	return farm, nil
}

// EdgeSite describes one proxy-cache site of the edge tier.
type EdgeSite struct {
	Name string
	// Capacity is the edge node's resource envelope; the zero value uses
	// gara.DefaultCapacity().
	Capacity gara.NodeCapacity
	// DiskBytes bounds the site's blob store (0 = unbounded; the prefix
	// cache's own byte budget is configured on the edgecache manager).
	DiskBytes int64
}

// EnableEdgeTier provisions the edge proxy-cache sites: each gets a gara
// node, a broker of its own (so edge legs participate in two-phase
// reservations like any site), an empty blob store, and a metadata store
// registered with the directory under TierEdge. Edge sites do not join
// siteNames: LoadCorpus never places authoritative replicas there, Sites()
// keeps returning the origin tier only, and with the edge tier never
// enabled every code path is byte-identical to the flat cluster.
func (c *Cluster) EnableEdgeTier(sites []EdgeSite) error {
	if len(sites) == 0 {
		return fmt.Errorf("core: no edge sites")
	}
	if len(c.edgeSites) > 0 {
		return fmt.Errorf("core: edge tier already enabled")
	}
	for _, es := range sites {
		if _, taken := c.Nodes[es.Name]; taken {
			return fmt.Errorf("core: edge site %q collides with an existing site", es.Name)
		}
	}
	for _, es := range sites {
		cap := es.Capacity
		if cap == (gara.NodeCapacity{}) {
			cap = gara.DefaultCapacity()
		}
		n := gara.NewNode(c.Sim, es.Name, cap)
		n.Instrument(c.Obs)
		c.Nodes[es.Name] = n
		c.Blobs[es.Name] = storage.NewBlobStore(es.DiskBytes)
		b := broker.New(c.Sim, n, c.Obs)
		c.Brokers[es.Name] = b
		c.Ctrl.Register(es.Name, b.Handle)
		if err := c.Dir.AddStore(metadata.NewStore(es.Name)); err != nil {
			return err
		}
		c.Dir.SetTier(es.Name, metadata.TierEdge)
		c.edgeSites = append(c.edgeSites, es.Name)
	}
	return nil
}

// EdgeSites returns the names of the enabled edge proxy sites in
// configuration order (empty without an edge tier).
func (c *Cluster) EdgeSites() []string { return append([]string(nil), c.edgeSites...) }

// TestbedCluster builds the paper's three-server deployment (§5).
func TestbedCluster(sim *simtime.Simulator) *Cluster {
	c, err := NewCluster(sim, []string{"srv-a", "srv-b", "srv-c"}, gara.DefaultCapacity())
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	return c
}

// Sites returns the site names in configuration order.
func (c *Cluster) Sites() []string { return c.siteNames }

// Node returns the gara node of a site.
func (c *Cluster) Node(site string) (*gara.Node, error) {
	n, ok := c.Nodes[site]
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q", site)
	}
	return n, nil
}

// LoadCorpus inserts the videos into the content engine and runs offline
// replication + QoS sampling per policy.
func (c *Cluster) LoadCorpus(videos []*media.Video, pol replication.Policy) (int64, error) {
	for _, v := range videos {
		if err := c.Engine.InsertVideo(v); err != nil {
			return 0, err
		}
	}
	sites := make([]replication.Site, 0, len(c.siteNames))
	for _, s := range c.siteNames {
		sites = append(sites, replication.Site{Name: s, Blobs: c.Blobs[s]})
	}
	return replication.Replicate(videos, sites, c.Dir, pol)
}

// Usage returns a site's reserved/used and capacity vectors. Unknown sites
// return an error rather than zero vectors — a zero capacity would silently
// corrupt LRB's Eq. 1 (division by bucket height) for any caller that
// mistyped a site name.
func (c *Cluster) Usage(site string) (usage, capacity qos.ResourceVector, err error) {
	n, ok := c.Nodes[site]
	if !ok {
		return qos.ResourceVector{}, qos.ResourceVector{}, fmt.Errorf("core: unknown site %q", site)
	}
	return n.Usage(), n.Capacity(), nil
}

// SiteUsage adapts the cluster to the cost models' SiteUsage contract.
// Plans only name directory-enumerated sites, so an unknown site here is a
// wiring bug: the adapter panics rather than feeding zero capacity into
// Eq. 1's division.
func (c *Cluster) SiteUsage() SiteUsage {
	return func(site string) (usage, capacity qos.ResourceVector) {
		u, cap, err := c.Usage(site)
		if err != nil {
			panic(err)
		}
		return u, cap
	}
}

// Capacity returns the (uniform) per-site capacity vector.
func (c *Cluster) Capacity() qos.ResourceVector {
	return c.Nodes[c.siteNames[0]].Capacity()
}

// OutstandingSessions returns the number of live streaming sessions across
// the cluster — the "outstanding sessions" series of Figures 6a and 7a.
// Relay leases of remote plans belong to their session and are not counted
// separately.
func (c *Cluster) OutstandingSessions() int { return int(c.mActive.Value()) }
