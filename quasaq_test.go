package quasaq

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func openLoaded(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVideos(StandardCorpus(42)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := openLoaded(t, Options{})
	if len(db.Sites()) != 3 {
		t.Fatalf("sites = %v", db.Sites())
	}
	if len(db.Videos()) != 15 {
		t.Fatalf("videos = %d", len(db.Videos()))
	}
	if _, err := db.Video(1); err != nil {
		t.Fatal(err)
	}
	if db.Now() != 0 {
		t.Fatal("fresh DB clock not at zero")
	}
}

func TestSearchContentPhase(t *testing.T) {
	db := openLoaded(t, Options{})
	res, err := db.Search("SELECT * FROM videos WHERE tags CONTAINS 'medical'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("medical videos = %d, want 5", len(res))
	}
	if _, err := db.Search("garbage"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestQueryTwoPhases(t *testing.T) {
	db := openLoaded(t, Options{})
	qr, err := db.Query("srv-a",
		"SELECT * FROM videos WHERE title = 'cardiac-mri-patient-007' "+
			"WITH QOS (resolution >= VCD, resolution <= CIF, depth >= 16, fps >= 20)")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Matches) != 1 || qr.Delivery == nil {
		t.Fatalf("matches=%d delivery=%v", len(qr.Matches), qr.Delivery)
	}
	db.RunUntilIdle()
	if !qr.Delivery.Session.Done() || !qr.Delivery.Session.QoSOK() {
		t.Fatal("delivery did not complete with QoS")
	}
	st := db.Stats()
	if st.Admitted != 1 || st.Outstanding != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueryWithoutQoSClauseSearchesOnly(t *testing.T) {
	db := openLoaded(t, Options{})
	qr, err := db.Query("srv-a", "SELECT * FROM videos WHERE duration < 100")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Delivery != nil {
		t.Fatal("delivery started without QoS clause")
	}
	if len(qr.Matches) == 0 {
		t.Fatal("no matches")
	}
}

func TestAdvanceProgressesSessions(t *testing.T) {
	db := openLoaded(t, Options{})
	d, err := db.Deliver("srv-a", 1, Requirement{MinResolution: ResVCD, MaxResolution: ResCIF})
	if err != nil {
		t.Fatal(err)
	}
	db.Advance(10 * time.Second)
	if d.Session.FramesDelivered() == 0 {
		t.Fatal("no frames after 10 virtual seconds")
	}
	if d.Session.Done() {
		t.Fatal("30 s video done after 10 s")
	}
	db.Advance(25 * time.Second)
	if !d.Session.Done() {
		t.Fatal("video not done after 35 s")
	}
}

func TestDeliverQoPSecondChance(t *testing.T) {
	db := openLoaded(t, Options{})
	nurse := NurseProfile()
	// Saturate DVD capacity so a DVD-grade QoP gets its second chance.
	top := QoP{Spatial: SpatialDVD, Temporal: TemporalSmooth, Color: ColorTrue}
	var admittedTop int
	for i := 0; i < 30; i++ {
		_, _, err := db.DeliverQoP("srv-a", nurse, top, VideoID(1+i%15), 0)
		if err == nil {
			admittedTop++
		}
	}
	if admittedTop >= 30 {
		t.Fatal("capacity never saturated")
	}
	// Now the same top-grade request with alternatives allowed must land
	// on a degraded tier instead of rejecting.
	d, finalReq, err := db.DeliverQoP("srv-a", nurse, top, 1, 6)
	if err != nil {
		t.Fatalf("second chance failed: %v", err)
	}
	orig := nurse.Translate(top)
	if finalReq.MinResolution == orig.MinResolution && finalReq.MinFrameRate == orig.MinFrameRate &&
		finalReq.MinColorDepth == orig.MinColorDepth {
		t.Fatal("admitted requirement was not degraded")
	}
	d.Cancel()
}

func TestDeliverQoPExhausted(t *testing.T) {
	db := openLoaded(t, Options{})
	prof := DefaultProfile("u")
	top := QoP{Spatial: SpatialDVD, Temporal: TemporalSmooth, Color: ColorTrue}
	for i := 0; i < 400; i++ {
		db.DeliverQoP("srv-a", prof, QoP{Spatial: SpatialLow, Temporal: TemporalChoppy, Color: ColorGray}, VideoID(1+i%15), 0)
	}
	_, _, err := db.DeliverQoP("srv-a", prof, top, 1, 8)
	if err == nil {
		t.Skip("cluster absorbed the whole load; cannot exercise exhaustion here")
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

func TestRenegotiateFacade(t *testing.T) {
	db := openLoaded(t, Options{})
	d, err := db.Deliver("srv-a", 1, Requirement{MinResolution: ResVCD, MaxResolution: ResCIF})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := db.Renegotiate(d, Requirement{MinResolution: ResDVD})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Plan.Delivered.Resolution != ResDVD {
		t.Fatalf("renegotiated to %v", nd.Plan.Delivered)
	}
	if db.Stats().Renegotiations != 1 {
		t.Fatal("renegotiation not counted")
	}
}

func TestCostModelOption(t *testing.T) {
	dbRandom := openLoaded(t, Options{Model: NewRandomModel(3)})
	dbLRB := openLoaded(t, Options{})
	req := Requirement{MinResolution: ResVCD, MaxResolution: ResCIF, MinFrameRate: 20}
	rejectsOf := func(db *DB) uint64 {
		for i := 0; i < 120; i++ {
			db.Deliver(db.Sites()[i%3], VideoID(1+i%15), req)
		}
		return db.Stats().Rejected
	}
	rr, lr := rejectsOf(dbRandom), rejectsOf(dbLRB)
	if rr <= lr {
		t.Fatalf("random rejects (%d) should exceed LRB rejects (%d)", rr, lr)
	}
}

func TestSingleCopyOption(t *testing.T) {
	db := openLoaded(t, Options{SingleCopyReplication: true})
	// Only originals exist, distributed round-robin; a VCD-band request is
	// still satisfiable via transcoding.
	d, err := db.Deliver("srv-a", 1, Requirement{MinResolution: ResVCD, MaxResolution: ResCIF})
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.Transcode == nil {
		t.Fatalf("single-copy delivery should transcode, plan: %s", d.Plan)
	}
	d.Cancel()
}

func TestSiteUsageObservable(t *testing.T) {
	db := openLoaded(t, Options{})
	d, err := db.Deliver("srv-a", 1, Requirement{MinResolution: ResDVD, MinFrameRate: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	site := d.Plan.DeliverySite
	usage, capacity, err := db.SiteUsage(site)
	if err != nil {
		t.Fatal(err)
	}
	if usage[1] <= 0 { // net bandwidth axis
		t.Fatalf("no usage visible at %s: %v", site, usage)
	}
	if capacity[1] != 3200e3 {
		t.Fatalf("capacity = %v", capacity)
	}
}

func TestEnableDynamicReplication(t *testing.T) {
	db := openLoaded(t, Options{SingleCopyReplication: true})
	db.EnableDynamicReplication(20*time.Second, 4)
	db.EnableDynamicReplication(20*time.Second, 4) // idempotent
	req := Requirement{MinResolution: ResVCD, MaxResolution: ResCIF, MinColorDepth: 16}
	// Demand VCD-tier deliveries; initially every plan transcodes from an
	// original. After a rebalance the tier exists as a stored replica.
	for i := 0; i < 10; i++ {
		if d, err := db.Deliver("srv-a", 1, req); err == nil {
			d.Cancel()
		}
	}
	db.Advance(25 * time.Second)
	if db.DynamicReplicasCreated() == 0 {
		t.Fatal("no replicas materialized")
	}
	d, err := db.Deliver("srv-a", 1, req)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	if d.Plan.Transcode != nil {
		t.Fatalf("still transcoding after dynamic replication: %s", d.Plan)
	}
}

func TestDynamicReplicasZeroWhenDisabled(t *testing.T) {
	db := openLoaded(t, Options{})
	if db.DynamicReplicasCreated() != 0 {
		t.Fatal("phantom replicas")
	}
}

func TestPlanStringExposed(t *testing.T) {
	db := openLoaded(t, Options{})
	d, err := db.Deliver("srv-b", 2, Requirement{MinResolution: ResVCD, MaxResolution: ResCIF})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	if !strings.Contains(d.Plan.String(), "retrieve") {
		t.Fatalf("plan string: %q", d.Plan.String())
	}
}
