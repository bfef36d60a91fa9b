package quasaq

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// goldenFarmWorkload drives a deterministic admission / renegotiation /
// saturation workload and returns the DB's Stats plus every settled
// delivery's outcome and observed QoS, all rendered as strings.
func goldenFarmWorkload(t *testing.T, db *DB) (string, []string) {
	t.Helper()
	reqs := []Requirement{
		{MinResolution: ResVCD, MaxResolution: ResCIF},
		{MinResolution: ResQCIF, MaxResolution: ResVCD, MinFrameRate: 10},
		{MinResolution: ResQCIF, MaxResolution: ResSD, MinColorDepth: 16},
		{MinResolution: ResCIF, MaxResolution: ResDVD, MinFrameRate: 20},
	}
	sites := db.Sites()
	videos := db.Videos()

	var deliveries []*Delivery
	var outcomes []string
	for i := 0; i < 24; i++ {
		site := sites[i%len(sites)]
		id := videos[i%len(videos)].ID
		req := reqs[i%len(reqs)]
		d, err := db.Deliver(site, id, req)
		if err != nil {
			outcomes = append(outcomes, fmt.Sprintf("reject %d: %v", i, err))
		} else {
			deliveries = append(deliveries, d)
		}
		db.Advance(500 * time.Millisecond)
	}

	// A mid-playback renegotiation re-plans the staged plan.
	if len(deliveries) > 0 {
		db.Advance(3 * time.Second)
		if _, err := db.Renegotiate(deliveries[0], reqs[1]); err != nil {
			outcomes = append(outcomes, fmt.Sprintf("renegotiate: %v", err))
		}
	}

	// Saturation burst with no clock progress, so admission control
	// rejects once the buckets fill.
	for i := 0; i < 16; i++ {
		d, err := db.Deliver(sites[i%len(sites)], videos[i%len(videos)].ID, reqs[3])
		if err != nil {
			outcomes = append(outcomes, fmt.Sprintf("burst reject %d: %v", i, err))
		} else {
			deliveries = append(deliveries, d)
		}
	}
	db.RunUntilIdle()

	for i, d := range deliveries {
		outcomes = append(outcomes, fmt.Sprintf("observed %d: %+v", i, observed(d)))
	}
	return fmt.Sprintf("%+v", db.Stats()), outcomes
}

// TestNeutralFarmGoldenEquivalence is the staged-plan acceptance gate: a DB
// with the zero-config transcoding farm (one instant, free worker) must be
// byte-identical to a plain DB on the same workload — same Stats, same
// rejection sequence, same per-delivery observed QoS — even though every
// transcoding session's GOPs route through the farm. The corpus is stored
// single-copy so nearly every delivery carries a transcode stage.
func TestNeutralFarmGoldenEquivalence(t *testing.T) {
	plain := openLoaded(t, Options{SingleCopyReplication: true})
	wantStats, wantOutcomes := goldenFarmWorkload(t, plain)
	checkGolden(t, "farm-plain", wantStats+"\n"+strings.Join(wantOutcomes, "\n")+"\n")

	farmed := openLoaded(t, Options{SingleCopyReplication: true})
	if err := farmed.EnableTranscodeFarm(FarmConfig{}); err != nil {
		t.Fatal(err)
	}
	gotStats, gotOutcomes := goldenFarmWorkload(t, farmed)

	if gotStats != wantStats {
		t.Errorf("neutral-farm Stats diverged from plain DB:\n got: %s\nwant: %s", gotStats, wantStats)
	}
	if len(gotOutcomes) != len(wantOutcomes) {
		t.Fatalf("outcome count diverged: got %d, want %d", len(gotOutcomes), len(wantOutcomes))
	}
	for i := range wantOutcomes {
		if gotOutcomes[i] != wantOutcomes[i] {
			t.Errorf("outcome %d diverged:\n got: %s\nwant: %s", i, gotOutcomes[i], wantOutcomes[i])
		}
	}

	// The equivalence is only meaningful if the farm actually carried the
	// transcoding work.
	fs := farmed.TranscodeStats()
	if fs.Jobs == 0 || fs.Completed != fs.Jobs {
		t.Fatalf("neutral farm carried no GOP jobs: %+v", fs)
	}
	if fs.DeadlineMiss != 0 || fs.Dollars != 0 {
		t.Fatalf("neutral farm is not free and instant: %+v", fs)
	}
	if plain.TranscodeStats().Jobs != 0 {
		t.Fatal("plain DB reported farm jobs")
	}
}

// TestFarmStatsZeroWithoutFarm pins the no-farm API contract.
func TestFarmStatsZeroWithoutFarm(t *testing.T) {
	db := openLoaded(t, Options{})
	fs := db.TranscodeStats()
	if fs.Jobs != 0 || fs.Completed != 0 || len(fs.PerClass) != 0 {
		t.Fatalf("TranscodeStats without a farm = %+v, want zero value", fs)
	}
	if err := db.EnableTranscodeFarm(FarmConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableTranscodeFarm(FarmConfig{}); err == nil {
		t.Fatal("second EnableTranscodeFarm did not error")
	}
}
