package replication

import (
	"testing"
	"time"

	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/netsim"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

func dynFixture(t *testing.T, quota int64) (*simtime.Simulator, *metadata.Directory, []Site, []*media.Video, *Dynamic) {
	t.Helper()
	sim := simtime.NewSimulator()
	videos := media.StandardCorpus(42)
	ss := sites(3, quota)
	dir := metadata.NewDirectory()
	// Start from the single-copy world: only originals exist.
	if _, err := Replicate(videos, ss, dir, SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	return sim, dir, ss, videos, NewDynamic(sim, dir, videos, ss)
}

func vcdReq() qos.Requirement {
	return qos.Requirement{MinResolution: qos.ResVCD, MaxResolution: qos.ResCIF, MinColorDepth: 16}
}

func TestCheapestSatisfyingTier(t *testing.T) {
	v := media.StandardCorpus(42)[0]
	tier, ok := cheapestSatisfyingTier(v, vcdReq())
	if !ok || tier != media.LinkDSL {
		t.Fatalf("tier = %v ok=%v, want DSL", tier, ok)
	}
	tier, ok = cheapestSatisfyingTier(v, qos.Requirement{MinResolution: qos.ResDVD})
	if !ok || tier != media.LinkLAN {
		t.Fatalf("tier = %v, want LAN", tier)
	}
	tier, ok = cheapestSatisfyingTier(v, qos.Requirement{})
	if !ok || tier != media.LinkModem {
		t.Fatalf("unconstrained tier = %v, want modem", tier)
	}
	if _, ok := cheapestSatisfyingTier(v, qos.Requirement{MinResolution: qos.Resolution{W: 4096, H: 2160}}); ok {
		t.Fatal("impossible requirement mapped to a tier")
	}
}

func TestRebalanceMaterializesHottestTier(t *testing.T) {
	_, dir, _, videos, dyn := dynFixture(t, 0)
	before := len(dir.Lookup("A", videos[0].ID))
	// Video 1 is requested often at VCD quality; video 2 once.
	for i := 0; i < 10; i++ {
		dyn.Observe(videos[0].ID, vcdReq())
	}
	dyn.Observe(videos[1].ID, vcdReq())
	made := dyn.rebalance(1)
	if made != 1 || dyn.Created() != 1 {
		t.Fatalf("made = %d created = %d", made, dyn.Created())
	}
	after := dir.Lookup("A", videos[0].ID)
	if len(after) != before+1 {
		t.Fatalf("replicas of hot video: %d -> %d", before, len(after))
	}
	wantQ := media.LadderQuality(media.LinkDSL, videos[0].FrameRate)
	found := false
	for _, r := range after {
		if r.Variant.Quality == wantQ {
			found = true
			if r.Profile[qos.ResNetBandwidth] <= 0 {
				t.Fatal("materialized replica lacks a QoS profile")
			}
		}
	}
	if !found {
		t.Fatal("hot tier not materialized")
	}
}

func TestRebalanceResetsWindow(t *testing.T) {
	_, _, _, videos, dyn := dynFixture(t, 0)
	dyn.Observe(videos[0].ID, vcdReq())
	dyn.rebalance(5)
	// Window reset: a second rebalance with no new demand creates nothing.
	if made := dyn.rebalance(5); made != 0 {
		t.Fatalf("made %d replicas with no demand", made)
	}
}

func TestRebalanceConvergesAndStops(t *testing.T) {
	_, dir, _, videos, dyn := dynFixture(t, 0)
	// Saturate demand for one video's DSL tier across many rounds: once
	// all three sites hold the tier, no further copies appear.
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			dyn.Observe(videos[0].ID, vcdReq())
		}
		dyn.rebalance(2)
	}
	count := 0
	wantQ := media.LadderQuality(media.LinkDSL, videos[0].FrameRate)
	for _, r := range dir.Lookup("A", videos[0].ID) {
		if r.Variant.Quality == wantQ {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("DSL-tier copies = %d, want exactly one per site", count)
	}
}

func TestRebalanceBalancesStorage(t *testing.T) {
	_, _, ss, videos, dyn := dynFixture(t, 0)
	dyn.Observe(videos[0].ID, vcdReq())
	dyn.rebalance(1)
	// The copy must land on the emptiest site. After single-copy
	// replication sites hold different originals; find the minimum.
	minUsed := ss[0].Blobs.Used()
	for _, s := range ss[1:] {
		if s.Blobs.Used() < minUsed {
			minUsed = s.Blobs.Used()
		}
	}
	// The new replica's site had the previous minimum; verify no site is
	// below it now (i.e. the copy went to the former minimum).
	below := 0
	v := media.NewVariant(media.LadderQuality(media.LinkDSL, videos[0].FrameRate))
	size := v.SizeBytes(videos[0])
	for _, s := range ss {
		if s.Blobs.Used() < minUsed {
			below++
		}
	}
	_ = size
	if below > 0 {
		t.Fatal("replica placed on a non-minimal site")
	}
}

func TestRebalanceRespectsQuota(t *testing.T) {
	// Tiny quotas: originals fit (they were created with quota 0 in the
	// fixture, so craft a separate setup).
	sim := simtime.NewSimulator()
	videos := media.StandardCorpus(42)[:2]
	ss := sites(1, 1<<30)
	dir := metadata.NewDirectory()
	if _, err := Replicate(videos, ss, dir, SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	// Exhaust the remaining quota.
	used := ss[0].Blobs.Used()
	if _, err := ss[0].Blobs.Create((1 << 30) - used); err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamic(sim, dir, videos, ss)
	dyn.Observe(videos[0].ID, vcdReq())
	if made := dyn.rebalance(1); made != 0 {
		t.Fatalf("made %d replicas past the quota", made)
	}
}

func TestDynamicTicker(t *testing.T) {
	sim, dir, _, videos, dyn := dynFixture(t, 0)
	dyn.Start(10*time.Second, 1)
	dyn.Start(10*time.Second, 1) // idempotent
	before := len(dir.Lookup("A", videos[2].ID))
	sim.Schedule(time.Second, func() { dyn.Observe(videos[2].ID, vcdReq()) })
	sim.RunUntil(15 * time.Second)
	if len(dir.Lookup("A", videos[2].ID)) != before+1 {
		t.Fatal("periodic rebalance did not materialize the replica")
	}
	if dyn.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMaterializeOverLinksTakesTime(t *testing.T) {
	sim, dir, ss, videos, dyn := func() (*simtime.Simulator, *metadata.Directory, []Site, []*media.Video, *Dynamic) {
		sim := simtime.NewSimulator()
		videos := media.StandardCorpus(42)
		ss := sites(3, 0)
		dir := metadata.NewDirectory()
		if _, err := Replicate(videos, ss, dir, SingleCopyPolicy()); err != nil {
			t.Fatal(err)
		}
		return sim, dir, ss, videos, NewDynamic(sim, dir, videos, ss)
	}()
	links := map[string]*netsim.Link{}
	for _, s := range ss {
		links[s.Name] = netsim.NewLink(s.Name+"-out", 3200e3)
	}
	dyn.SetLinks(links)
	// Video 2's original lives at site B (round-robin homes); demand its
	// DSL tier. The emptiest site differs from the source, so bytes must
	// travel.
	dyn.Observe(videos[1].ID, vcdReq())
	before := len(dir.Lookup("A", videos[1].ID))
	if made := dyn.rebalance(1); made != 1 {
		t.Fatalf("transfer not initiated: made=%d", made)
	}
	// Not yet registered: the transfer is in flight.
	if got := len(dir.Lookup("A", videos[1].ID)); got != before {
		t.Fatalf("replica appeared instantly despite links: %d -> %d", before, got)
	}
	// A second rebalance must not double-start the same transfer.
	dyn.Observe(videos[1].ID, vcdReq())
	if made := dyn.rebalance(1); made != 0 {
		t.Fatal("duplicate transfer started")
	}
	// DSL tier of a 45 s video at 800 KB/s: a few seconds.
	sim.RunUntil(30 * time.Second)
	if got := len(dir.Lookup("A", videos[1].ID)); got != before+1 {
		t.Fatalf("replica not registered after transfer: %d -> %d", before, got)
	}
	if dyn.Created() != 1 {
		t.Fatalf("created = %d", dyn.Created())
	}
}

func TestObserveUnknownVideoIgnored(t *testing.T) {
	_, _, _, _, dyn := dynFixture(t, 0)
	dyn.Observe(999, vcdReq())
	if made := dyn.rebalance(1); made != 0 {
		t.Fatal("unknown video produced a replica")
	}
}
