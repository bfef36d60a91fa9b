package core

import (
	"errors"
	"strings"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
)

// liveLeases reads the live-lease gauge gara publishes for the node's site.
func liveLeases(t *testing.T, n *gara.Node) int64 {
	t.Helper()
	if n.Registry() == nil {
		t.Fatalf("%s: node not instrumented", n.Name())
	}
	return n.Registry().Gauge("gara_leases_live", "site", n.Name()).Value()
}

func testCluster(t *testing.T) (*simtime.Simulator, *Cluster) {
	t.Helper()
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
	return sim, c
}

func vcdRequirement() qos.Requirement {
	// The paper's worked QoP example: VCD-like band, any depth >= 16.
	return qos.Requirement{
		MinResolution: qos.ResVCD,
		MaxResolution: qos.ResCIF,
		MinColorDepth: 16,
		MinFrameRate:  20,
	}
}

func TestClusterSetup(t *testing.T) {
	_, c := testCluster(t)
	if len(c.Sites()) != 3 {
		t.Fatalf("sites = %v", c.Sites())
	}
	if n := len(c.Engine.All()); n != 15 {
		t.Fatalf("catalog = %d", n)
	}
	for _, s := range c.Sites() {
		if c.Blobs[s].Count() != 60 { // 15 videos x 4 tiers
			t.Fatalf("site %s blobs = %d", s, c.Blobs[s].Count())
		}
	}
	if _, err := c.Node("nope"); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestGenerateProducesSatisfyingPlans(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	req := vcdRequirement()
	plans := gen.GenerateAll("srv-a", v, req)
	if len(plans) == 0 {
		t.Fatal("no plans generated")
	}
	for _, p := range plans {
		if !req.SatisfiedBy(p.Delivered) {
			t.Fatalf("plan %s delivers %v, violating %v", p, p.Delivered, req)
		}
		if p.Demand(StageDeliver)[qos.ResNetBandwidth] <= 0 {
			t.Fatalf("plan %s has no network demand", p)
		}
		if p.Remote() && p.Demand(StageSource)[qos.ResNetBandwidth] <= 0 {
			t.Fatalf("remote plan %s has no source demand", p)
		}
		if !p.Remote() && p.Demand(StageSource) != (qos.ResourceVector{}) {
			t.Fatalf("local plan %s has source demand", p)
		}
	}
}

func TestGenerateFig2ShapedSpace(t *testing.T) {
	// Figure 2's structure: plans combine replicas across sites (A1),
	// delivery sites (A2), drop strategies (A3), transcode targets (A4).
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{MinColorDepth: 8} // loose: big space
	plans := gen.GenerateAll("srv-a", v, req)
	var sawRemote, sawTranscode, sawDrop, sawPlain bool
	for _, p := range plans {
		if p.Remote() {
			sawRemote = true
		}
		if p.Transcode != nil {
			sawTranscode = true
		}
		if p.Drop != transport.DropNone {
			sawDrop = true
		}
		if !p.Remote() && p.Transcode == nil && p.Drop == transport.DropNone && p.Encrypt == nil {
			sawPlain = true // the "single node in set A1" simplest plan
		}
	}
	if !sawRemote || !sawTranscode || !sawDrop || !sawPlain {
		t.Fatalf("space missing variety: remote=%v transcode=%v drop=%v plain=%v",
			sawRemote, sawTranscode, sawDrop, sawPlain)
	}
}

func TestGenerateNeverUpscales(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{MinResolution: qos.ResDVD}
	plans := gen.GenerateAll("srv-a", v, req)
	if len(plans) == 0 {
		t.Fatal("DVD requirement should be satisfiable by the original")
	}
	for _, p := range plans {
		if !p.Replica.Variant.Quality.Resolution.AtLeast(qos.ResDVD) {
			t.Fatalf("plan uses undersized replica: %s", p)
		}
		if p.Transcode != nil {
			t.Fatalf("transcode in a DVD-only space should be pruned: %s", p)
		}
	}
}

func TestGenerateFrameRateRespectsDrop(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1) // 23.97 fps
	req := qos.Requirement{MinFrameRate: 20}
	for _, p := range gen.GenerateAll("srv-a", v, req) {
		if p.Drop != transport.DropNone && p.Drop != transport.DropHalfB {
			t.Fatalf("aggressive drop %v cannot satisfy fps >= 20 (delivers %.4g)",
				p.Drop, p.Delivered.FrameRate)
		}
	}
}

func TestGenerateEncryptionRules(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	// No security requirement: no plan may carry encryption (wasted CPU).
	for _, p := range gen.GenerateAll("srv-a", v, qos.Requirement{}) {
		if p.Encrypt != nil {
			t.Fatalf("unrequested encryption in %s", p)
		}
	}
	// Strong security: every plan encrypts at strong level.
	req := qos.Requirement{Security: qos.SecurityStrong}
	plans := gen.GenerateAll("srv-a", v, req)
	if len(plans) == 0 {
		t.Fatal("no plans under strong security")
	}
	for _, p := range plans {
		if p.Encrypt == nil || p.Encrypt.Level < qos.SecurityStrong {
			t.Fatalf("weak or missing encryption in %s", p)
		}
		if p.Delivered.Security != qos.SecurityStrong {
			t.Fatalf("delivered security not set: %v", p.Delivered)
		}
	}
}

func TestGenerateImpossibleRequirement(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	req := qos.Requirement{MinResolution: qos.Resolution{W: 1920, H: 1080}}
	if plans := gen.GenerateAll("srv-a", v, req); len(plans) != 0 {
		t.Fatalf("impossible requirement produced %d plans", len(plans))
	}
	// The same site and video have candidates: pruning emptied the set.
	if plans := gen.GenerateAll("srv-a", v, qos.Requirement{}); len(plans) == 0 {
		t.Fatal("no candidates to prune")
	}
}

func TestLRBFig3Example(t *testing.T) {
	// Figure 3: the plan whose largest bucket after filling is lowest wins.
	usage := func(site string) (qos.ResourceVector, qos.ResourceVector) {
		// One site, buckets R1..R4 at heights 100 with fills 30,42,10,20.
		return qos.ResourceVector{0.30, 42, 10, 20}, qos.ResourceVector{1, 100, 100, 100}
	}
	mk := func(d qos.ResourceVector) *Plan {
		return &Plan{
			Replica:      &metadata.Replica{Site: "s1"},
			DeliverySite: "s1",
			Stages:       []Stage{{Kind: StageDeliver, Site: "s1", Vec: d}},
			reserved:     1,
		}
	}
	plan1 := mk(qos.ResourceVector{0.40, 10, 10, 10}) // max bucket: cpu 0.70
	plan2 := mk(qos.ResourceVector{0.10, 13, 20, 25}) // max bucket: net 0.55
	plan3 := mk(qos.ResourceVector{0.05, 8, 75, 10})  // max bucket: disk 0.85
	var lrb LRB
	ranked := lrb.Order([]*Plan{plan1, plan2, plan3}, usage)
	if ranked[0] != plan2 || ranked[1] != plan1 || ranked[2] != plan3 {
		t.Fatalf("LRB order wrong: got costs %.2f %.2f %.2f",
			lrb.Cost(ranked[0], usage), lrb.Cost(ranked[1], usage), lrb.Cost(ranked[2], usage))
	}
	if c := lrb.Cost(plan2, usage); c != 0.55 {
		t.Fatalf("plan2 cost = %v, want 0.55", c)
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	plans := gen.GenerateAll("srv-a", v, qos.Requirement{})
	r := NewRandom(simtime.NewRand(7))
	out := r.Order(plans, c.SiteUsage())
	if len(out) != len(plans) {
		t.Fatalf("permutation length %d != %d", len(out), len(plans))
	}
	seen := map[*Plan]bool{}
	for _, p := range out {
		if seen[p] {
			t.Fatal("duplicate plan in random order")
		}
		seen[p] = true
	}
}

func TestServiceAdmitsAndStreams(t *testing.T) {
	sim, c := testCluster(t)
	m := NewManager(c, LRB{})
	var done *Delivery
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{OnDone: func(x *Delivery) { done = x }})
	if err != nil {
		t.Fatal(err)
	}
	if c.OutstandingSessions() == 0 {
		t.Fatal("no outstanding session after admission")
	}
	sim.Run()
	if done != d {
		t.Fatal("completion callback not fired")
	}
	if !d.Session.QoSOK() {
		t.Fatal("uncontended QuaSAQ delivery failed QoS")
	}
	if c.OutstandingSessions() != 0 {
		t.Fatal("resources leaked after completion")
	}
	st := m.Stats()
	if st.Admitted != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServiceLRBPicksCheapSatisfyingPlan(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	// The cheapest satisfying plan for the VCD band is the local
	// DSL-tier replica (320x240/16bit), no transcode, no drop.
	p := d.Plan
	if p.Remote() || p.Transcode != nil || p.Drop != transport.DropNone {
		t.Fatalf("LRB chose a wasteful plan: %s", p)
	}
	if p.Delivered.Resolution != qos.ResVCD || p.Delivered.ColorDepth != 16 {
		t.Fatalf("delivered %v, want the DSL tier", p.Delivered)
	}
}

func TestServiceNoPlan(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	req := qos.Requirement{MinResolution: qos.Resolution{W: 4096, H: 2160}}
	if _, err := m.Service("srv-a", 1, req, ServiceOptions{}); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("err = %v, want ErrNoPlan", err)
	}
	if _, err := m.Service("srv-a", 99, vcdRequirement(), ServiceOptions{}); err == nil {
		t.Fatal("unknown video accepted")
	}
}

func TestServiceRejectsWhenSaturated(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	// Full resolution AND full frame rate: no drop strategy or transcode
	// can cheapen these plans, so admission is purely capacity-bound.
	req := qos.Requirement{MinResolution: qos.ResDVD, MinFrameRate: 23}
	admitted := 0
	for i := 0; i < 100; i++ {
		if _, err := m.Service("srv-a", 1, req, ServiceOptions{}); err == nil {
			admitted++
		} else if !errors.Is(err, ErrRejected) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// 3 servers x 3200 KB/s / 476 KB/s ~ 6.7 per server = ~20 total.
	if admitted < 15 || admitted > 25 {
		t.Fatalf("admitted %d DVD streams, want ~20 (capacity-bound)", admitted)
	}
	if m.Stats().Rejected != uint64(100-admitted) {
		t.Fatalf("rejects = %d, want %d", m.Stats().Rejected, 100-admitted)
	}
}

func TestServiceLoadBalancesAcrossSites(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	req := qos.Requirement{MinResolution: qos.ResDVD}
	for i := 0; i < 12; i++ {
		if _, err := m.Service("srv-a", media.VideoID(1+i%15), req, ServiceOptions{}); err != nil {
			t.Fatalf("query %d rejected: %v", i, err)
		}
	}
	// All queries arrive at srv-a, but LRB must spread load: every site
	// should host some sessions.
	for _, s := range c.Sites() {
		if liveLeases(t, c.Nodes[s]) == 0 {
			t.Fatalf("site %s idle: LRB did not balance (leases: a=%d b=%d c=%d)",
				s, liveLeases(t, c.Nodes["srv-a"]), liveLeases(t, c.Nodes["srv-b"]), liveLeases(t, c.Nodes["srv-c"]))
		}
	}
}

func TestVDBMSBaselineAdmitsEverything(t *testing.T) {
	sim, c := testCluster(t)
	b := NewVDBMSService(c)
	for i := 0; i < 50; i++ {
		if _, err := b.Service("srv-a", media.VideoID(1+i%15), 0, nil); err != nil {
			t.Fatalf("VDBMS rejected query %d: %v", i, err)
		}
	}
	if got := c.Obs.Counter("transport_sessions_started_total", "site", "srv-a", "mode", "best-effort").Value(); got != 50 {
		t.Fatalf("best-effort sessions on srv-a = %d, want 50", got)
	}
	sim.Run()
	if c.OutstandingSessions() != 0 {
		t.Fatal("sessions leaked")
	}
}

func TestQoSAPIBaselineRejectsAtCapacity(t *testing.T) {
	_, c := testCluster(t)
	b := NewQoSAPIService(c)
	admitted, rejected := 0, 0
	for i := 0; i < 30; i++ {
		if _, err := b.Service("srv-a", media.VideoID(1+i%15), 0, nil); err == nil {
			admitted++
		} else if errors.Is(err, ErrRejected) {
			rejected++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// One server's link / 476 KB/s ~ 6.7: admission stops there.
	if admitted < 5 || admitted > 8 {
		t.Fatalf("admitted %d at one site, want ~6-7", admitted)
	}
	if rejected != 30-admitted {
		t.Fatalf("rejected = %d", rejected)
	}
}

func TestRenegotiateUpgrade(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := m.Renegotiate(d, qos.Requirement{MinResolution: qos.ResDVD}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Plan.Delivered.Resolution != qos.ResDVD {
		t.Fatalf("renegotiated delivery = %v", nd.Plan.Delivered)
	}
	if m.Stats().Renegotiations != 1 {
		t.Fatal("renegotiation not counted")
	}
	nd.Cancel()
}

func TestRenegotiateResumesPosition(t *testing.T) {
	sim, c := testCluster(t)
	m := NewManager(c, LRB{})
	d, err := m.Service("srv-a", 7, vcdRequirement(), ServiceOptions{}) // 120 s video
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(simtime.Seconds(30))
	pos := d.Session.Position()
	if pos < 500 {
		t.Fatalf("position after 30 s = %d frames", pos)
	}
	nd, err := m.Renegotiate(d, qos.Requirement{MinResolution: qos.ResDVD}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var done bool
	// The resumed session must finish in roughly the REMAINING time, not
	// the full duration.
	start := sim.Now()
	sim.Run()
	done = nd.Session.Done()
	if !done {
		t.Fatal("resumed session never finished")
	}
	remaining := simtime.ToSeconds(nd.Session.Finished() - start)
	if remaining > 95 {
		t.Fatalf("resumed session took %.1f s; should be ~90 s of a 120 s video", remaining)
	}
	if remaining < 80 {
		t.Fatalf("resumed session took only %.1f s; resume point wrong", remaining)
	}
}

func TestSessionStartFrameRoundsToGOP(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	d, err := m.Service("srv-a", 7, vcdRequirement(), ServiceOptions{StartFrame: 37})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	if d.Session.Position() != 45 { // GOP 2 spans 30..44, already scheduled
		// Position advances GOP-wise; right after start, the first GOP
		// (frames 30-44) is scheduled, so the next is 45.
		t.Fatalf("position = %d, want 45", d.Session.Position())
	}
}

func TestRenegotiateFailureRestores(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	impossible := qos.Requirement{MinResolution: qos.Resolution{W: 4096, H: 2160}}
	restored, rerr := m.Renegotiate(d, impossible, ServiceOptions{})
	if rerr == nil {
		t.Fatal("impossible renegotiation succeeded")
	}
	if restored == nil {
		t.Fatal("original delivery not restored")
	}
	if restored.Plan.Delivered.Resolution != qos.ResVCD {
		t.Fatalf("restored delivery = %v", restored.Plan.Delivered)
	}
	restored.Cancel()
}

func TestSingleCopyAblationShrinksSpace(t *testing.T) {
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	plans := gen.GenerateAll("srv-a", v, qos.Requirement{MinColorDepth: 8})
	full, _ := testClusterPlans(t)
	if len(plans) >= full {
		t.Fatalf("single-copy space (%d) not smaller than full replication (%d)", len(plans), full)
	}
}

func testClusterPlans(t *testing.T) (int, *Cluster) {
	t.Helper()
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	return len(gen.GenerateAll("srv-a", v, qos.Requirement{MinColorDepth: 8})), c
}

func TestPlanString(t *testing.T) {
	_, c := testCluster(t)
	gen := NewGenerator(c.Dir, c.Capacity())
	v, _ := c.Engine.Video(1)
	plans := gen.GenerateAll("srv-b", v, qos.Requirement{Security: qos.SecurityStandard})
	for _, p := range plans {
		s := p.String()
		if s == "" {
			t.Fatal("empty plan string")
		}
		if p.Encrypt != nil && !strings.Contains(s, "encrypt") {
			t.Fatalf("plan string %q missing encryption step", s)
		}
	}
}
