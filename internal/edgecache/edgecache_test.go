package edgecache

import (
	"math/rand"
	"testing"

	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/obs"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/storage"
)

// holds reports whether the edge site has the video resident (prefix or
// promoted full copy).
func holds(m *Manager, edgeSite string, id media.VideoID) bool {
	sc := m.byName[edgeSite]
	if sc == nil {
		return false
	}
	_, ok := sc.entries[id]
	return ok
}

// testWorld builds a directory with one origin site holding a full
// high-bitrate replica of every corpus video, plus two empty edge sites
// registered with the cache manager.
func testWorld(t *testing.T, cfg Config) (*metadata.Directory, *Manager, []*media.Video) {
	t.Helper()
	sim := simtime.NewSimulator()
	dir := metadata.NewDirectory()
	videos := media.StandardCorpus(42)
	origin := metadata.NewStore("origin")
	if err := dir.AddStore(origin); err != nil {
		t.Fatal(err)
	}
	blobs := storage.NewBlobStore(0)
	for _, v := range videos {
		va := media.NewVariant(media.LadderQuality(media.LinkLAN, v.FrameRate))
		blob, err := blobs.Create(va.SizeBytes(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := origin.Add(&metadata.Replica{
			Video: v.ID, Site: "origin", Variant: va, Blob: blob.ID,
			Profile: replication.SampleProfile(v, va),
		}); err != nil {
			t.Fatal(err)
		}
	}
	m := New(sim, dir, videos, obs.NewRegistry(), cfg)
	for _, name := range []string{"edge-a", "edge-b"} {
		st := metadata.NewStore(name)
		if err := dir.AddStore(st); err != nil {
			t.Fatal(err)
		}
		dir.SetTier(name, metadata.TierEdge)
		m.AddSite(name, storage.NewBlobStore(0), st)
	}
	m.MapClient("client-a", "edge-a")
	m.MapClient("client-b", "edge-b")
	return dir, m, videos
}

// onePrefixBytes returns the byte size of video v's prefix at the cache's
// configured GOP count, copied from the origin's full replica variant.
func onePrefixBytes(t *testing.T, m *Manager, dir *metadata.Directory, v *media.Video) int64 {
	t.Helper()
	rep, ok := m.sourceReplica("edge-a", v.ID)
	if !ok {
		t.Fatalf("no full replica for %s", v.ID)
	}
	return prefixBytes(v, rep.Variant, m.cfg.PrefixGOPs)
}

// TestInstallBumpsEpochOnce pins the plan-cache invalidation contract: one
// prefix install is exactly one topology-epoch bump, and a tick that
// installs nothing bumps nothing.
func TestInstallBumpsEpochOnce(t *testing.T) {
	dir, m, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2})
	before := dir.Epoch()
	m.tick() // nothing observed yet
	if got := dir.Epoch(); got != before {
		t.Fatalf("idle tick bumped epoch: %d -> %d", before, got)
	}
	m.Observe("client-a", videos[0].ID)
	before = dir.Epoch()
	m.tick()
	if got := dir.Epoch(); got != before+1 {
		t.Fatalf("one install bumped epoch by %d, want 1", got-before)
	}
	if !holds(m, "edge-a", videos[0].ID) {
		t.Fatal("prefix not resident after install")
	}
	if s := m.Stats(); s.Installs != 1 || s.Prefixes != 1 {
		t.Fatalf("stats after install: %+v", s)
	}
	// A tick with nothing new leaves the epoch alone again.
	before = dir.Epoch()
	m.tick()
	if got := dir.Epoch(); got != before {
		t.Fatalf("steady-state tick bumped epoch: %d -> %d", before, got)
	}
}

// TestEvictionBumpsEpochOncePerTransition forces budget pressure so a hotter
// video displaces a colder resident: the tick performs exactly one eviction
// and one install — two epoch bumps, one per replica transition.
func TestEvictionBumpsEpochOncePerTransition(t *testing.T) {
	probeDir, probe, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2})
	// Budget sized to the corpus's largest prefix: with that video resident,
	// any other prefix fits the budget but not alongside it — guaranteeing
	// displacement rather than admission refusal.
	big, bigBytes := videos[0], int64(0)
	for _, v := range videos {
		if b := onePrefixBytes(t, probe, probeDir, v); b > bigBytes {
			big, bigBytes = v, b
		}
	}
	var small *media.Video
	for _, v := range videos {
		if v != big {
			small = v
			break
		}
	}
	dir, m, _ := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2, ByteBudget: bigBytes})

	m.Observe("client-a", big.ID)
	m.tick()
	if !holds(m, "edge-a", big.ID) {
		t.Fatal("first prefix not installed")
	}
	// The resident's hot count decays to zero across ticks; a strictly
	// hotter candidate then claims the space.
	m.tick()
	m.Observe("client-a", small.ID)
	m.Observe("client-a", small.ID)
	before := dir.Epoch()
	m.tick()
	if got := dir.Epoch(); got != before+2 {
		t.Fatalf("evict+install bumped epoch by %d, want 2", got-before)
	}
	if holds(m, "edge-a", big.ID) {
		t.Fatal("evicted prefix still resident")
	}
	if !holds(m, "edge-a", small.ID) {
		t.Fatal("hotter prefix not installed")
	}
	st, err := dir.Store("edge-a")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Local(big.ID)); got != 0 {
		t.Fatalf("evicted video still has %d replicas in the edge store", got)
	}
	if s := m.Stats(); s.Evictions != 1 || s.Installs != 2 || s.Prefixes != 1 {
		t.Fatalf("stats after churn: %+v", s)
	}
}

// TestBudgetNeverExceededUnderChurn drives a rotating popularity pattern
// through a cache that fits only a couple of prefixes and checks the
// invariants after every tick: per-site bytes within budget, blob-store
// usage in lockstep with the accounting, and residency always matching the
// metadata store.
func TestBudgetNeverExceededUnderChurn(t *testing.T) {
	probeDir, probe, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2})
	budget := 2 * onePrefixBytes(t, probe, probeDir, videos[0])
	_, m, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2, ByteBudget: budget})

	clients := []string{"client-a", "client-b"}
	for round := 0; round < 60; round++ {
		// Rotate which videos are hot so installs and evictions keep
		// happening; the mix differs per home edge.
		for burst := 0; burst < 3; burst++ {
			v := videos[(round*5+burst*3)%len(videos)]
			m.Observe(clients[round%2], v.ID)
			m.Observe(clients[round%2], v.ID)
		}
		m.tick()
		for _, sc := range m.sites {
			if sc.used > m.cfg.ByteBudget {
				t.Fatalf("round %d: site %s uses %d bytes over budget %d",
					round, sc.name, sc.used, m.cfg.ByteBudget)
			}
			if got := sc.blobs.Used(); got != sc.used {
				t.Fatalf("round %d: site %s accounting %d != blob store %d",
					round, sc.name, sc.used, got)
			}
			if int(sc.blobs.Count()) != len(sc.entries) {
				t.Fatalf("round %d: site %s has %d blobs for %d entries",
					round, sc.name, sc.blobs.Count(), len(sc.entries))
			}
			for _, v := range videos {
				_, resident := sc.entries[v.ID]
				if resident != (len(sc.store.Local(v.ID)) > 0) {
					t.Fatalf("round %d: site %s residency for %s disagrees with metadata store",
						round, sc.name, v.ID)
				}
			}
		}
	}
	if s := m.Stats(); s.Evictions == 0 {
		t.Fatalf("churn workload produced no evictions: %+v", s)
	}
}

// TestConcurrentObserveTickHolds interleaves, in a seeded order, four
// query streams' Observe calls with cache ticks (and their
// residency changes), as a world's sessions and the cache ticker interleave
// on the simulation clock. After every step no observation may be lost
// (hits plus misses equal the observations so far) and no site may exceed
// its byte budget.
func TestConcurrentObserveTickHolds(t *testing.T) {
	_, m, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2})
	const streams, observes, ticks = 4, 200, 40
	var done [streams]int
	ticked, observed := 0, uint64(0)
	order := rand.New(rand.NewSource(9))
	for step := 0; observed < streams*observes || ticked < ticks; step++ {
		g := order.Intn(streams + 1) // streams: the ticker's turn
		if g == streams && ticked < ticks || observed == streams*observes {
			m.tick()
			ticked++
		} else {
			for g %= streams; done[g] == observes; g = (g + 1) % streams {
			}
			i := done[g]
			done[g]++
			client := []string{"client-a", "client-b"}[g%2]
			m.Observe(client, videos[(g*31+i)%len(videos)].ID)
			observed++
		}
		s := m.Stats()
		if s.Hits+s.Misses != observed {
			t.Fatalf("step %d: %d hits + %d misses after %d observations", step, s.Hits, s.Misses, observed)
		}
		for _, sc := range m.sites {
			if sc.used > m.cfg.ByteBudget {
				t.Fatalf("step %d: site %s uses %d bytes over budget %d", step, sc.name, sc.used, m.cfg.ByteBudget)
			}
		}
	}
	// One more tick settles the admissions of the last observations.
	m.tick()
	if s := m.Stats(); s.Installs == 0 {
		t.Fatalf("interleaved workload installed nothing: %+v", s)
	}
}

// TestMakeRoomEvictsNothingWhenSpaceCannotBeFreed: when the free space plus
// every strictly colder resident still falls short of a prefix, makeRoom
// refuses before evicting anything — the cold resident stays, Evictions
// does not move and the topology epoch stays put.
func TestMakeRoomEvictsNothingWhenSpaceCannotBeFreed(t *testing.T) {
	dir, m, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2})
	cold, warm := videos[0], videos[1]
	m.Observe("client-a", cold.ID)
	m.Observe("client-a", warm.ID)
	m.tick()
	sc := m.byName["edge-a"]
	if sc.entries[cold.ID] == nil || sc.entries[warm.ID] == nil {
		t.Fatal("residents not installed")
	}
	sc.entries[cold.ID].hot, sc.entries[warm.ID].hot = 0, 5
	// One byte more than the free space plus the cold resident: only
	// evicting the warm resident as well would make room, and it is not
	// colder than the candidate.
	need := m.cfg.ByteBudget - sc.used + sc.entries[cold.ID].bytes + 1
	evictions, epoch := m.Stats().Evictions, dir.Epoch()
	if m.makeRoom(sc, need, 3) {
		t.Fatalf("makeRoom found %d bytes with %d free", need, m.cfg.ByteBudget-sc.used)
	}
	if !holds(m, "edge-a", cold.ID) || !holds(m, "edge-a", warm.ID) {
		t.Fatal("a resident was evicted although the space could not be freed")
	}
	if got := m.Stats().Evictions; got != evictions {
		t.Fatalf("evictions moved %d -> %d", evictions, got)
	}
	if got := dir.Epoch(); got != epoch {
		t.Fatalf("epoch moved %d -> %d", epoch, got)
	}
}

// TestPromotionInPlace: a prefix whose cumulative popularity crosses
// PromoteHits is upgraded to a full edge replica when the budget allows —
// one epoch bump for the swap, and the planner sees a full copy.
func TestPromotionInPlace(t *testing.T) {
	dir, m, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2, PromoteHits: 3})
	m.Observe("client-a", videos[0].ID)
	m.tick() // install, life=1
	m.Observe("client-a", videos[0].ID)
	m.Observe("client-a", videos[0].ID)
	before := dir.Epoch()
	m.tick() // life=3 crosses the threshold
	if got := dir.Epoch(); got != before+1 {
		t.Fatalf("in-place promotion bumped epoch by %d, want 1", got-before)
	}
	s := m.Stats()
	if s.Promotions != 1 || s.FullReplicas != 1 || s.Prefixes != 0 {
		t.Fatalf("stats after promotion: %+v", s)
	}
	st, err := dir.Store("edge-a")
	if err != nil {
		t.Fatal(err)
	}
	reps := st.Local(videos[0].ID)
	if len(reps) != 1 || !reps[0].Full() {
		t.Fatalf("edge store after promotion holds %v", reps)
	}
}

// TestPromotionOverflowFeedsReplicator: when the full copy does not fit the
// edge budget, the sustained demand is handed to the promote sink instead —
// the bridge into replication.Dynamic.
func TestPromotionOverflowFeedsReplicator(t *testing.T) {
	probeDir, probe, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2})
	one := onePrefixBytes(t, probe, probeDir, videos[0])
	_, m, videos := testWorld(t, Config{MinHits: 1, PrefixGOPs: 2, PromoteHits: 2, ByteBudget: one})

	var promoted []media.VideoID
	m.SetPromote(func(id media.VideoID, _ media.LinkClass, n int) {
		if n <= 0 {
			t.Fatalf("promote with non-positive demand %d", n)
		}
		promoted = append(promoted, id)
	})
	m.Observe("client-a", videos[0].ID)
	m.tick()
	m.Observe("client-a", videos[0].ID)
	m.Observe("client-a", videos[0].ID)
	m.tick()
	if len(promoted) != 1 || promoted[0] != videos[0].ID {
		t.Fatalf("promote sink saw %v, want [%s]", promoted, videos[0].ID)
	}
	// The prefix stays resident (still serving startups) and is not
	// re-promoted every tick: life was reset.
	if !holds(m, "edge-a", videos[0].ID) {
		t.Fatal("prefix dropped on overflow promotion")
	}
	m.tick()
	if len(promoted) != 1 {
		t.Fatalf("promotion re-fed every tick: %v", promoted)
	}
}
