package core

import (
	"testing"

	"quasaq/internal/edgecache"
	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transcode"
)

// edgeManager wires a testbed cluster with a two-site edge tier on an
// aggressive cache config (single observation admits a prefix, 1 s tick).
func edgeManager(t *testing.T, cfg edgecache.Config) (*simtime.Simulator, *Cluster, *Manager, *edgecache.Manager) {
	t.Helper()
	sim, c := testCluster(t)
	m := NewManager(c, LRB{})
	if cfg.MinHits == 0 {
		cfg.MinHits = 1
	}
	if cfg.PrefixGOPs == 0 {
		cfg.PrefixGOPs = 4
	}
	if cfg.Interval == 0 {
		cfg.Interval = simtime.Seconds(1)
	}
	ec, err := m.EnableEdgeTier([]EdgeSite{{Name: "edge-1"}, {Name: "edge-2"}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec.MapClient("srv-a", "edge-1")
	ec.MapClient("srv-b", "edge-2")
	ec.MapClient("srv-c", "edge-1")
	return sim, c, m, ec
}

// ladderPrefixBytes mirrors the cache's sizing: the first n GOPs at the
// highest-bitrate (LAN) ladder variant, which is what the prefix copies.
func ladderPrefixBytes(v *media.Video, n int) int64 {
	va := media.NewVariant(media.LadderQuality(media.LinkLAN, v.FrameRate))
	var total int64
	gop := v.GOP.Len()
	for g := 0; g < n && g*gop < v.Frames(); g++ {
		total += va.GOPSize(v, g*gop)
	}
	return total
}

// warmPrefix observes id from srv-a and runs one cache tick, after which
// srv-a's home edge (edge-1) must hold its prefix.
func warmPrefix(t *testing.T, sim *simtime.Simulator, m *Manager, id media.VideoID) {
	t.Helper()
	ec := m.EdgeCache()
	ec.Observe("srv-a", id)
	sim.RunUntil(sim.Now() + simtime.Seconds(1.5))
	if !edgeHolds(t, m, "edge-1", id) {
		t.Fatalf("prefix of %s not installed at edge-1 after warmup: %+v", id, ec.Stats())
	}
}

// edgeHolds reports whether the edge site's metadata store lists a replica
// of id: the residency the plan generator sees.
func edgeHolds(t *testing.T, m *Manager, edgeSite string, id media.VideoID) bool {
	t.Helper()
	st, err := m.cluster.Dir.Store(edgeSite)
	if err != nil {
		t.Fatal(err)
	}
	return len(st.Local(id)) > 0
}

// TestSplitPlanEnumeration: once an edge prefix exists, the generator emits
// split plans — prefix leg at the edge, tail leg on a same-quality full
// replica elsewhere, joined at a GOP-aligned split frame — alongside the
// unchanged origin plans, and never delivers a full video from an edge site
// it doesn't hold.
func TestSplitPlanEnumeration(t *testing.T) {
	sim, c, m, _ := edgeManager(t, edgecache.Config{})
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{} // unconstrained: matches the high-bitrate prefix variant
	warmPrefix(t, sim, m, v.ID)

	plans, _ := m.planCandidates("srv-a", v, req)
	var split, plain int
	for _, p := range plans {
		if !p.Split() {
			plain++
			if c.Dir.Tier(p.DeliverySite) == 1 { // metadata.TierEdge
				t.Fatalf("non-split plan delivers from edge site: %s", p)
			}
			continue
		}
		split++
		if p.SplitFrame <= 0 || p.SplitFrame >= v.Frames() {
			t.Fatalf("degenerate split frame %d in %s", p.SplitFrame, p)
		}
		if p.SplitFrame%v.GOP.Len() != 0 {
			t.Fatalf("split frame %d not GOP-aligned", p.SplitFrame)
		}
		if !p.TailReplica.Full() {
			t.Fatalf("tail replica is partial: %s", p)
		}
		if p.TailReplica.Variant.Quality != p.Replica.Variant.Quality {
			t.Fatalf("split legs change coded variant: %s", p)
		}
		if p.TailReplica.Site == p.Replica.Site {
			t.Fatalf("tail and prefix on the same site: %s", p)
		}
		stages := p.ReservationStages()
		if len(stages) < 2 || stages[0].Kind != StageDeliver || stages[1].Kind != StageTailDeliver {
			t.Fatalf("split reservation order wrong: %v", stages)
		}
		if p.Demand(StageTailDeliver)[qos.ResNetBandwidth] <= 0 {
			t.Fatalf("tail stage has no network demand: %s", p)
		}
	}
	if split == 0 {
		t.Fatal("no split plans after prefix install")
	}
	if plain == 0 {
		t.Fatal("origin plans disappeared")
	}
}

// TestSplitDeliveryHandover runs a split plan end to end: the prefix leg
// streams at the edge, hands over to the tail site at the split frame, and
// the logical delivery finishes once with all leases returned.
func TestSplitDeliveryHandover(t *testing.T) {
	sim, c, m, _ := edgeManager(t, edgecache.Config{})
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{} // unconstrained: matches the high-bitrate prefix variant
	warmPrefix(t, sim, m, v.ID)

	plans, _ := m.planCandidates("srv-a", v, req)
	var sp *Plan
	for _, p := range plans {
		if p.Split() {
			sp = p
			break
		}
	}
	if sp == nil {
		t.Fatal("no split plan to execute")
	}
	done := 0
	d := &Delivery{mgr: m, video: v, req: req, querySite: "srv-a",
		opts: ServiceOptions{OnDone: func(*Delivery) { done++ }}}
	var rerr error
	m.executeInto(d, sp, 0, func(err error) { rerr = err })
	if rerr != nil {
		t.Fatalf("split reservation failed: %v", rerr)
	}
	if d.held[tailStage] == nil {
		t.Fatal("tail lease not parked on the delivery")
	}
	sim.Run()
	if done != 1 {
		t.Fatalf("OnDone fired %d times, want 1", done)
	}
	ms := m.Stats()
	if ms.SplitAdmissions != 1 || ms.Handovers != 1 {
		t.Fatalf("split counters = admissions %d handovers %d, want 1/1", ms.SplitAdmissions, ms.Handovers)
	}
	if !d.handedOver || d.held[tailStage] != nil {
		t.Fatal("handover left the delivery in a bad state")
	}
	if !d.Session.Done() || d.Session.Position() != v.Frames() {
		t.Fatalf("tail leg ended at frame %d of %d", d.Session.Position(), v.Frames())
	}
	if c.OutstandingSessions() != 0 {
		t.Fatalf("outstanding sessions = %d after teardown", c.OutstandingSessions())
	}
	for _, site := range []string{"edge-1", sp.TailReplica.Site} {
		u, _, err := c.Usage(site)
		if err != nil {
			t.Fatal(err)
		}
		if u != (qos.ResourceVector{}) {
			t.Fatalf("site %s still holds resources after teardown: %v", site, u)
		}
	}
}

// TestSplitResumePastBoundary: a resume (failover/renegotiation) at or past
// the split frame starts directly on the tail leg — the edge lease is
// returned immediately and no handover happens.
func TestSplitResumePastBoundary(t *testing.T) {
	sim, c, m, _ := edgeManager(t, edgecache.Config{})
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{} // unconstrained: matches the high-bitrate prefix variant
	warmPrefix(t, sim, m, v.ID)

	plans, _ := m.planCandidates("srv-a", v, req)
	var sp *Plan
	for _, p := range plans {
		if p.Split() {
			sp = p
			break
		}
	}
	if sp == nil {
		t.Fatal("no split plan")
	}
	opts := ServiceOptions{StartFrame: sp.SplitFrame}
	d := &Delivery{mgr: m, video: v, req: req, querySite: "srv-a", opts: opts}
	var rerr error
	m.executeInto(d, sp, opts.StartFrame, func(err error) { rerr = err })
	if rerr != nil {
		t.Fatalf("resume reservation failed: %v", rerr)
	}
	u, _, err := c.Usage("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	if u != (qos.ResourceVector{}) {
		t.Fatalf("edge lease not returned on past-boundary resume: %v", u)
	}
	sim.Run()
	ms := m.Stats()
	if ms.Handovers != 0 {
		t.Fatalf("past-boundary resume recorded %d handovers, want 0", ms.Handovers)
	}
	if !d.Session.Done() || d.Session.Position() != v.Frames() {
		t.Fatalf("tail-only delivery ended at frame %d of %d", d.Session.Position(), v.Frames())
	}
}

// TestStaleSplitPlanNeverAdmittedAfterEviction is the plan-cache regression
// gate: serving a video warms the candidate cache with split plans; once
// budget pressure evicts the prefix, the next admission must re-enumerate
// (epoch bump) and never bind a split plan against the vanished replica.
func TestStaleSplitPlanNeverAdmittedAfterEviction(t *testing.T) {
	_, c0 := testCluster(t)
	videos := c0.Engine.All()
	// Budget = the largest prefix in the corpus: any other video's prefix
	// fits the budget, but never alongside the resident one.
	var hot *media.Video
	var budget int64
	for _, v := range videos {
		if b := ladderPrefixBytes(v, 4); b > budget {
			hot, budget = v, b
		}
	}
	var rival *media.Video
	for _, v := range videos {
		if v != hot {
			rival = v
			break
		}
	}
	sim, _, m, ec := edgeManager(t, edgecache.Config{ByteBudget: budget})
	req := qos.Requirement{} // unconstrained: every video admits
	warmPrefix(t, sim, m, hot.ID)

	d, err := m.Service("srv-a", hot.ID, req, ServiceOptions{})
	if err != nil {
		t.Fatalf("warm admission failed: %v", err)
	}
	hadSplit := false
	for _, p := range mustCandidates(t, m, "srv-a", hot, req) {
		if p.Split() {
			hadSplit = true
		}
	}
	if !hadSplit {
		t.Fatal("cached candidate set carries no split plan while the prefix is resident")
	}
	d.Cancel()

	// Let the resident cool, then make the rival strictly hotter: the tick
	// evicts hot's prefix to admit the rival's.
	sim.RunUntil(sim.Now() + simtime.Seconds(2.5))
	ec.Observe("srv-a", rival.ID)
	ec.Observe("srv-a", rival.ID)
	sim.RunUntil(sim.Now() + simtime.Seconds(1.5))
	if edgeHolds(t, m, "edge-1", hot.ID) {
		t.Fatal("prefix survived budget pressure; eviction never happened")
	}

	d2, err := m.Service("srv-a", hot.ID, req, ServiceOptions{})
	if err != nil {
		t.Fatalf("post-eviction admission failed: %v", err)
	}
	defer d2.Cancel()
	if d2.Plan.Split() {
		t.Fatalf("stale split plan admitted after eviction: %s", d2.Plan)
	}
	if !d2.Plan.Replica.Full() {
		t.Fatalf("admitted plan reads a partial replica: %s", d2.Plan)
	}
	for _, p := range mustCandidates(t, m, "srv-a", hot, req) {
		if p.Split() {
			t.Fatalf("candidate set still carries a split plan after eviction: %s", p)
		}
	}
}

// firstPlan returns the first candidate of shape pred for v queried at srv-a.
func firstPlan(t *testing.T, m *Manager, v *media.Video, req qos.Requirement, pred func(*Plan) bool) *Plan {
	t.Helper()
	for _, p := range mustCandidates(t, m, "srv-a", v, req) {
		if pred(p) {
			return p
		}
	}
	t.Fatal("no candidate plan of the wanted shape")
	return nil
}

func mustCandidates(t *testing.T, m *Manager, site string, v *media.Video, req qos.Requirement) []*Plan {
	t.Helper()
	plans, _ := m.planCandidates(site, v, req)
	if len(plans) == 0 {
		t.Fatal("no candidates")
	}
	return plans
}

// stageWorlds are the three plan-shape regimes and the stage each adds to
// the flat deliver(+source) plan: a non-neutral farm adds the offloaded
// transcode stage, an edge tier with a warm prefix adds the tail leg.
var stageWorlds = []struct {
	name  string
	build func(t *testing.T) (*simtime.Simulator, *Manager, qos.Requirement)
	adds  func(*Plan) bool
}{
	{"flat", func(t *testing.T) (*simtime.Simulator, *Manager, qos.Requirement) {
		sim, c := testCluster(t)
		return sim, NewManager(c, LRB{}), qos.Requirement{MinColorDepth: 8}
	}, func(p *Plan) bool { return p.Remote() && p.Transcode == nil }},
	{"farm", func(t *testing.T) (*simtime.Simulator, *Manager, qos.Requirement) {
		sim, c := testCluster(t)
		m := NewManager(c, LRB{})
		if _, err := m.EnableFarm(transcode.FarmConfig{Classes: []transcode.WorkerClass{
			{Name: "fast", Speed: 4, MinWorkers: 2, MaxWorkers: 2},
		}}); err != nil {
			t.Fatal(err)
		}
		return sim, m, qos.Requirement{MinColorDepth: 8}
	}, func(p *Plan) bool { return p.Remote() && p.FarmOffloaded() }},
	{"edge", func(t *testing.T) (*simtime.Simulator, *Manager, qos.Requirement) {
		sim, _, m, _ := edgeManager(t, edgecache.Config{})
		warmPrefix(t, sim, m, 1)
		return sim, m, qos.Requirement{} // unconstrained: matches the high-bitrate prefix variant
	}, (*Plan).Split},
}

// TestStagesBuiltInReservationOrder pins the one plan shape: every
// generated plan stores its resource-holding stages first, ordered deliver,
// tail, source, transcode, with no zero vector among them and nothing but
// zero vectors after them, and ReservationStages hands out that stored
// prefix rather than a copy.
func TestStagesBuiltInReservationOrder(t *testing.T) {
	rank := map[StageKind]int{StageDeliver: 0, StageTailDeliver: 1, StageSource: 2, StageTranscode: 3}
	for _, w := range stageWorlds {
		t.Run(w.name, func(t *testing.T) {
			_, m, req := w.build(t)
			v, _ := m.cluster.Engine.Video(1)
			added := 0
			for _, p := range mustCandidates(t, m, "srv-a", v, req) {
				if w.adds(p) {
					added++
				}
				rs := p.ReservationStages()
				if len(rs) == 0 || rs[0].Kind != StageDeliver {
					t.Fatalf("%s: reserved prefix %v does not start with deliver", p, rs)
				}
				for i, st := range rs {
					if st.Vec == (qos.ResourceVector{}) {
						t.Fatalf("%s: reserved stage %d (%s) has a zero vector", p, i, st.Kind)
					}
					if i > 0 && rank[st.Kind] <= rank[rs[i-1].Kind] {
						t.Fatalf("%s: stage %s reserved after %s", p, st.Kind, rs[i-1].Kind)
					}
				}
				for _, st := range p.Stages[len(rs):] {
					if st.Vec != (qos.ResourceVector{}) {
						t.Fatalf("%s: stage %s holds resources outside the reserved prefix", p, st.Kind)
					}
				}
				if again := p.ReservationStages(); &again[0] != &rs[0] || &rs[0] != &p.Stages[0] || len(again) != len(rs) {
					t.Fatalf("%s: ReservationStages is not the stored prefix", p)
				}
			}
			if added == 0 {
				t.Fatal("world generated no plan of the shape it adds")
			}
		})
	}
}

// TestLeaseConservation: whichever way a delivery ends — the stream
// completes, the viewer cancels, the session fails, a lease held beside the
// session's is revoked — every lease of every reservation stage goes back
// exactly once and every node, the farm pseudo-site included, reads zero.
// The held-revoked exit on the split plan is the parked-tail case: the
// delivery fails at once (without failover, is abandoned) instead of
// stalling at the handover boundary.
func TestLeaseConservation(t *testing.T) {
	lastStageSite := func(d *Delivery) string {
		rs := d.Plan.ReservationStages()
		return rs[len(rs)-1].Site
	}
	exits := []struct {
		name         string
		do           func(m *Manager, d *Delivery)
		done, failed bool
	}{
		{"completes", func(*Manager, *Delivery) {}, true, false},
		{"cancel", func(_ *Manager, d *Delivery) { d.Cancel() }, false, false},
		{"session-fails", func(m *Manager, d *Delivery) { m.cluster.Nodes[d.Plan.DeliverySite].Fail() }, false, true},
		{"held-revoked", func(m *Manager, d *Delivery) { m.cluster.Nodes[lastStageSite(d)].Fail() }, false, true},
	}
	for _, w := range stageWorlds {
		for _, exit := range exits {
			t.Run(w.name+"/"+exit.name, func(t *testing.T) {
				sim, m, req := w.build(t)
				v, _ := m.cluster.Engine.Video(1)
				p := firstPlan(t, m, v, req, w.adds)
				var done, failed int
				d := &Delivery{mgr: m, video: v, req: req, querySite: "srv-a", opts: ServiceOptions{
					OnDone:   func(*Delivery) { done++ },
					OnFailed: func(*Delivery, error) { failed++ },
				}}
				var rerr error
				m.executeInto(d, p, 0, func(err error) { rerr = err })
				if rerr != nil {
					t.Fatalf("reservation failed: %v", rerr)
				}
				stages := p.ReservationStages()
				if len(stages) < 2 || len(d.held) != len(stages) {
					t.Fatalf("%d leases held for %d reservation stages", len(d.held), len(stages))
				}
				for i, l := range d.held {
					if (l == nil) != (i == deliverStage) {
						t.Fatalf("held[%d] = %v: the session owns the deliver lease and nothing else", i, l)
					}
					if liveLeases(t, m.cluster.Nodes[stages[i].Site]) != 1 {
						t.Fatalf("stage %s holds no lease at %s", stages[i].Kind, stages[i].Site)
					}
				}

				sim.RunUntil(sim.Now() + simtime.Seconds(0.5))
				exit.do(m, d)
				sim.Run()

				if (done == 1) != exit.done || (failed == 1) != exit.failed || done+failed > 1 {
					t.Fatalf("OnDone fired %d times, OnFailed %d", done, failed)
				}
				if d.Failed() != exit.failed {
					t.Fatalf("Failed() = %v", d.Failed())
				}
				if exit.failed && m.Stats().Handovers != 0 {
					t.Fatal("failed delivery still recorded a handover")
				}
				for i, l := range d.held {
					if l != nil {
						t.Fatalf("delivery still holds the %s lease", stages[i].Kind)
					}
				}
				if n := m.cluster.OutstandingSessions(); n != 0 {
					t.Fatalf("outstanding sessions = %d", n)
				}
				var granted uint64
				for site, n := range m.cluster.Nodes {
					if u := n.Usage(); u != (qos.ResourceVector{}) || liveLeases(t, n) != 0 {
						t.Fatalf("site %s: usage %v, %d leases after the delivery ended", site, u, liveLeases(t, n))
					}
					reg := m.cluster.Obs
					g := reg.Counter("gara_leases_granted_total", "site", site).Value()
					back := reg.Counter("gara_leases_released_total", "site", site).Value() +
						reg.Counter("gara_leases_revoked_total", "site", site).Value()
					if g != back {
						t.Fatalf("site %s: %d leases granted, %d returned", site, g, back)
					}
					granted += g
				}
				if granted != uint64(len(stages)) {
					t.Fatalf("%d leases granted for %d reservation stages", granted, len(stages))
				}
			})
		}
	}
}

// TestBindRejectsLeaseCountMismatch: a commit that hands bind fewer leases
// than the plan has reservation stages is refused and everything it did
// hand over is released — never a session streaming without its relay.
func TestBindRejectsLeaseCountMismatch(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{MinColorDepth: 8}
	p := firstPlan(t, m, v, req, (*Plan).Remote)
	node := c.Nodes[p.DeliverySite]
	l, err := node.Reserve(v.Title, p.Demand(StageDeliver), simtime.Seconds(1/p.Delivered.FrameRate))
	if err != nil {
		t.Fatal(err)
	}
	d := &Delivery{mgr: m, video: v, req: req, querySite: "srv-a"}
	if err := m.bind(d, p, []*gara.Lease{l}, 0); err == nil {
		t.Fatal("bind accepted one lease for a two-stage plan")
	}
	if liveLeases(t, node) != 0 || d.Session != nil {
		t.Fatalf("refused bind left %d leases and session %v", liveLeases(t, node), d.Session)
	}
}
