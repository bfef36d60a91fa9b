package quasaq

// Integration tests: long mixed workloads through the public API, checking
// cross-module invariants — resource conservation, counter consistency,
// determinism — rather than single-module behaviour.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"quasaq/internal/core"
)

// TestIntegrationMixedWorkload drives twenty virtual minutes of mixed
// queries, cancellations and renegotiations, then verifies the cluster
// drains clean.
func TestIntegrationMixedWorkload(t *testing.T) {
	db := openLoaded(t, Options{})
	prof := DefaultProfile("it")
	tiers := []QoP{
		{Spatial: SpatialDVD, Temporal: TemporalSmooth, Color: ColorTrue},
		{Spatial: SpatialTV, Temporal: TemporalStandard, Color: ColorTrue},
		{Spatial: SpatialVCD, Temporal: TemporalStandard, Color: ColorBasic},
		{Spatial: SpatialVCD, Temporal: TemporalStandard, Color: ColorBasic, Security: SecurityStandard},
	}
	var live []*Delivery
	completed := 0
	for round := 0; round < 60; round++ {
		// A few arrivals per round.
		for k := 0; k < 3; k++ {
			i := round*3 + k
			site := db.Sites()[i%3]
			id := VideoID(1 + i%15)
			d, _, err := db.DeliverQoP(site, prof, tiers[i%len(tiers)], id, 4)
			if err != nil {
				if !errors.Is(err, ErrExhausted) {
					t.Fatalf("round %d: unexpected error %v", round, err)
				}
				continue
			}
			live = append(live, d)
		}
		// Occasionally cancel the oldest live delivery mid-stream.
		if round%7 == 3 && len(live) > 0 {
			live[0].Cancel()
			live = live[1:]
		}
		// Occasionally renegotiate one.
		if round%11 == 5 && len(live) > 1 {
			nd, err := db.Renegotiate(live[1], prof.Translate(tiers[(round+1)%len(tiers)]))
			if err == nil {
				live[1] = nd
			} else if nd != nil {
				live[1] = nd
			} else {
				live = append(live[:1], live[2:]...)
			}
		}
		db.Advance(20 * time.Second)
		// Drop finished deliveries from the live set.
		kept := live[:0]
		for _, d := range live {
			if d.Session.Done() {
				completed++
			} else {
				kept = append(kept, d)
			}
		}
		live = kept
	}
	db.RunUntilIdle()
	if completed == 0 {
		t.Fatal("nothing completed in twenty minutes")
	}
	st := db.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after drain", st.Outstanding)
	}
	for _, site := range db.Sites() {
		usage, _, err := db.SiteUsage(site)
		if err != nil {
			t.Fatal(err)
		}
		for axis, v := range usage {
			if v > 1e-6 {
				t.Fatalf("site %s axis %d leaked %v", site, axis, v)
			}
		}
	}
	if st.Queries != st.Admitted+st.Rejected+st.NoPlan {
		t.Fatalf("counter mismatch: %+v", st)
	}
}

// TestIntegrationDeterminism runs the same scripted workload twice and
// expects identical outcomes.
func TestIntegrationDeterminism(t *testing.T) {
	run := func() string {
		db := openLoaded(t, Options{})
		out := ""
		for i := 0; i < 50; i++ {
			req := Requirement{MinResolution: ResVCD, MaxResolution: ResCIF, MinFrameRate: 20}
			if i%3 == 0 {
				req = Requirement{MinResolution: ResDVD, MinFrameRate: 23}
			}
			d, err := db.Deliver(db.Sites()[i%3], VideoID(1+i%15), req)
			if err != nil {
				out += "R"
				continue
			}
			out += fmt.Sprintf("[%s@%s]", d.Plan.Delivered.Resolution, d.Plan.DeliverySite)
			db.Advance(time.Second)
		}
		db.RunUntilIdle()
		st := db.Stats()
		return fmt.Sprintf("%s|%d/%d", out, st.Admitted, st.Rejected)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs diverged:\n%s\n%s", a, b)
	}
}

// TestIntegrationSaturationRecovery fills the cluster, drains it, and
// fills it again: capacity must be fully recoverable.
func TestIntegrationSaturationRecovery(t *testing.T) {
	db := openLoaded(t, Options{})
	req := Requirement{MinResolution: ResDVD, MinFrameRate: 23}
	fill := func() int {
		n := 0
		for i := 0; ; i++ {
			if _, err := db.Deliver(db.Sites()[i%3], VideoID(1+i%15), req); err != nil {
				return n
			}
			n++
		}
	}
	first := fill()
	if first < 15 {
		t.Fatalf("first fill = %d", first)
	}
	db.RunUntilIdle() // all videos complete
	second := fill()
	if second != first {
		t.Fatalf("capacity changed after drain: %d -> %d", first, second)
	}
}

// TestIntegrationContentToDelivery runs similarity search into delivery:
// the full two-phase path with a SIMILAR TO query.
func TestIntegrationContentToDelivery(t *testing.T) {
	db := openLoaded(t, Options{})
	qr, err := db.Query("srv-b",
		"SELECT * FROM videos WHERE tags CONTAINS 'medical' SIMILAR TO 'cardiac-mri-patient-007' LIMIT 3 "+
			"WITH QOS (resolution >= VCD, resolution <= CIF, fps >= 20)")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Matches) != 3 {
		t.Fatalf("matches = %d", len(qr.Matches))
	}
	if qr.Matches[0].Video.Title != "cardiac-mri-patient-007" {
		t.Fatalf("nearest = %s", qr.Matches[0].Video.Title)
	}
	if qr.Delivery == nil {
		t.Fatal("no delivery")
	}
	db.RunUntilIdle()
	if !qr.Delivery.Session.QoSOK() {
		t.Fatal("delivery failed QoS")
	}
}

// TestIntegrationSecurityEndToEnd verifies that security-constrained
// queries get encrypted plans whose CPU surcharge is accounted.
func TestIntegrationSecurityEndToEnd(t *testing.T) {
	db := openLoaded(t, Options{})
	plain, err := db.Deliver("srv-a", 1, Requirement{MinResolution: ResVCD, MaxResolution: ResCIF})
	if err != nil {
		t.Fatal(err)
	}
	secure, err := db.Deliver("srv-a", 1, Requirement{MinResolution: ResVCD, MaxResolution: ResCIF, Security: SecurityStrong})
	if err != nil {
		t.Fatal(err)
	}
	if secure.Plan.Encrypt == nil || plain.Plan.Encrypt != nil {
		t.Fatalf("encryption assignment wrong: plain=%v secure=%v", plain.Plan.Encrypt, secure.Plan.Encrypt)
	}
	if secure.Plan.Demand(StageDeliver)[0] <= plain.Plan.Demand(StageDeliver)[0] {
		t.Fatal("encryption did not cost CPU")
	}
	db.RunUntilIdle()
	if !secure.Session.QoSOK() {
		t.Fatal("secure session failed QoS")
	}
}

// TestIntegrationBaselineComparison reproduces the Figure 6 ordering
// through the internal services on one shared workload seedwise.
func TestIntegrationBaselineComparison(t *testing.T) {
	runSystem := func(build func(*DB) func(site string, id VideoID) error) (admitted int) {
		db := openLoaded(t, Options{})
		serve := build(db)
		for i := 0; i < 120; i++ {
			if err := serve(db.Sites()[i%3], VideoID(1+i%15)); err == nil {
				admitted++
			}
		}
		return admitted
	}
	req := Requirement{MinResolution: ResVCD, MaxResolution: ResCIF, MinFrameRate: 20}
	quasaqN := runSystem(func(db *DB) func(string, VideoID) error {
		return func(site string, id VideoID) error {
			_, err := db.Deliver(site, id, req)
			return err
		}
	})
	qosapiN := runSystem(func(db *DB) func(string, VideoID) error {
		svc := core.NewQoSAPIService(dbCluster(db))
		return func(site string, id VideoID) error {
			_, err := svc.Service(site, id, 0, nil)
			return err
		}
	})
	if quasaqN <= qosapiN {
		t.Fatalf("QuaSAQ admitted %d <= QoSAPI %d", quasaqN, qosapiN)
	}
}
