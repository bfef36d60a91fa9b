package quasaq

import (
	"strings"
	"testing"
	"time"
)

// neverAdmit configures an edge tier whose admission threshold is
// unreachable: the tier observes the workload but never installs a prefix.
func neverAdmit() EdgeConfig {
	return EdgeConfig{MinHits: 1 << 30}
}

func metricTotal(db *DB, name string) float64 {
	var total float64
	for _, s := range db.MetricsSnapshot() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// TestColdEdgeGoldenEquivalence is the tiered-topology acceptance gate: a DB
// with an edge tier that never caches anything must be byte-identical to a
// plain DB on the golden farm workload — same Stats, same rejection
// sequence, same per-delivery observed QoS. The edge sites exist, their
// brokers are registered, and the observe path runs on every query; none of
// it may perturb planning, admission, or delivery.
func TestColdEdgeGoldenEquivalence(t *testing.T) {
	plain := openLoaded(t, Options{})
	wantStats, wantOutcomes := goldenFarmWorkload(t, plain)
	checkGolden(t, "edge-plain", wantStats+"\n"+strings.Join(wantOutcomes, "\n")+"\n")

	edged := openLoaded(t, Options{})
	if err := edged.EnableEdgeTier([]EdgeSite{{Name: "edge-a"}, {Name: "edge-b"}}, neverAdmit()); err != nil {
		t.Fatal(err)
	}
	gotStats, gotOutcomes := goldenFarmWorkload(t, edged)

	if gotStats != wantStats {
		t.Errorf("cold-edge Stats diverged from plain DB:\n got: %s\nwant: %s", gotStats, wantStats)
	}
	if len(gotOutcomes) != len(wantOutcomes) {
		t.Fatalf("outcome count diverged: got %d, want %d", len(gotOutcomes), len(wantOutcomes))
	}
	for i := range wantOutcomes {
		if gotOutcomes[i] != wantOutcomes[i] {
			t.Errorf("outcome %d diverged:\n got: %s\nwant: %s", i, gotOutcomes[i], wantOutcomes[i])
		}
	}

	// The equivalence is only meaningful if the tier really watched the
	// workload: every admitted query missed the (empty) cache.
	es := edged.EdgeStats()
	if es.Sites != 2 || es.Misses == 0 {
		t.Fatalf("cold edge tier did not observe the workload: %+v", es)
	}
	if es.Installs != 0 || es.Hits != 0 || es.BytesUsed != 0 {
		t.Fatalf("cold edge tier is not cold: %+v", es)
	}
	if got := len(edged.EdgeSites()); got != 2 {
		t.Fatalf("EdgeSites() = %d sites, want 2", got)
	}
}

// TestEdgeStatsZeroWithoutEdge pins the no-edge API contract.
func TestEdgeStatsZeroWithoutEdge(t *testing.T) {
	db := openLoaded(t, Options{})
	if es := db.EdgeStats(); es != (EdgeStats{}) {
		t.Fatalf("EdgeStats without an edge tier = %+v, want zero value", es)
	}
	if got := db.EdgeSites(); len(got) != 0 {
		t.Fatalf("EdgeSites without an edge tier = %v", got)
	}
	if err := db.EnableEdgeTier([]EdgeSite{{Name: "edge-a"}}, EdgeConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableEdgeTier([]EdgeSite{{Name: "edge-b"}}, EdgeConfig{}); err == nil {
		t.Fatal("second EnableEdgeTier did not error")
	}
	if err := openLoaded(t, Options{}).EnableEdgeTier(nil, EdgeConfig{}); err == nil {
		t.Fatal("EnableEdgeTier with no sites did not error")
	}
}

// TestEdgeTierLiveSplitDelivery drives a skewed workload through an
// aggressive edge config and checks the whole pipeline fires: prefixes
// install, split plans win admission, and every split delivery hands over
// to its tail leg and completes.
func TestEdgeTierLiveSplitDelivery(t *testing.T) {
	db := openLoaded(t, Options{})
	cfg := EdgeConfig{MinHits: 1, PrefixGOPs: 4, Interval: time.Second, PromoteHits: 1 << 30}
	if err := db.EnableEdgeTier([]EdgeSite{{Name: "edge-a"}, {Name: "edge-b"}}, cfg); err != nil {
		t.Fatal(err)
	}

	// Pin the top stored tier: the prefix caches the highest-bitrate
	// variant, and a requirement the cheaper tiers cannot satisfy makes the
	// split plan and the plain plan on its tail replica exact cost ties —
	// which the generator breaks toward the edge leg.
	top := Requirement{MinResolution: ResSD}
	var kept []*Delivery
	for round := 0; round < 8; round++ {
		d, err := db.Deliver("srv-a", 1, top)
		if err != nil {
			t.Fatalf("round %d rejected: %v", round, err)
		}
		kept = append(kept, d)
		db.Advance(2 * time.Second)
		// Keep concurrency bounded so admission never rejects.
		if len(kept) > 2 {
			kept[0].Cancel()
			kept = kept[1:]
		}
	}
	for _, d := range kept {
		d.Cancel()
	}

	es := db.EdgeStats()
	if es.Installs == 0 || es.Hits == 0 {
		t.Fatalf("hot video never installed at the edge: %+v", es)
	}
	if splits := metricTotal(db, "quasaq_split_admissions_total"); splits == 0 {
		t.Fatal("no split plan won admission despite a resident prefix")
	}

	// Let one split delivery run to completion: the handover counter must
	// follow the admission counter.
	d, err := db.Deliver("srv-a", 1, top)
	if err != nil {
		t.Fatal(err)
	}
	before := metricTotal(db, "quasaq_handovers_total")
	db.RunUntilIdle()
	if !d.Session.Done() {
		t.Fatal("delivery did not finish")
	}
	if d.Plan.DeliverySite == "edge-a" {
		if got := metricTotal(db, "quasaq_handovers_total"); got <= before {
			t.Fatalf("split delivery finished without a handover (total %v)", got)
		}
	}
}
