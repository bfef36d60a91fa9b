package quasaq_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"quasaq"
)

// Public-API failover: open with failover enabled, crash a site
// mid-stream, watch the delivery resume elsewhere.

func TestPublicFailover(t *testing.T) {
	db, err := quasaq.Open(quasaq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVideos(quasaq.StandardCorpus(7)); err != nil {
		t.Fatal(err)
	}
	db.EnableFailover(quasaq.DefaultFailoverPolicy())
	var events []quasaq.FailoverEvent
	db.OnFailover(func(ev quasaq.FailoverEvent) { events = append(events, ev) })

	req := quasaq.Requirement{MinResolution: quasaq.ResVCD, MinFrameRate: 20, MinColorDepth: 8}
	d, err := db.Deliver("srv-b", 1, req)
	if err != nil {
		t.Fatal(err)
	}
	crashed := d.Plan.DeliverySite

	db.Advance(5 * time.Second)
	if err := db.CrashSite(crashed); err != nil {
		t.Fatal(err)
	}
	if !db.SiteDown(crashed) {
		t.Fatal("SiteDown false after CrashSite")
	}
	if _, err := db.Deliver(crashed, 2, req); !errors.Is(err, quasaq.ErrNodeDown) {
		t.Fatalf("deliver at crashed site: %v, want ErrNodeDown", err)
	}

	db.RunUntilIdle()
	if d.Plan.DeliverySite == crashed {
		t.Fatalf("delivery still at crashed site %s", crashed)
	}
	if len(events) != 1 || events[0].FromSite != crashed {
		t.Fatalf("events = %+v", events)
	}
	st := db.Stats()
	if st.SessionFailures != 1 || st.Failovers != 1 || st.FramesLostInFailover <= 0 {
		t.Fatalf("stats = %+v", st)
	}

	if err := db.RestoreSite(crashed); err != nil {
		t.Fatal(err)
	}
	if db.SiteDown(crashed) {
		t.Fatal("site still down after restore")
	}
	if _, err := db.Deliver(crashed, 2, req); err != nil {
		t.Fatalf("deliver after restore: %v", err)
	}
	db.RunUntilIdle()
}

func TestPublicFaultScheduleAndLinkFaults(t *testing.T) {
	db, err := quasaq.Open(quasaq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVideos(quasaq.StandardCorpus(7)); err != nil {
		t.Fatal(err)
	}
	pol := quasaq.DefaultFailoverPolicy()
	pol.BestEffortFallback = true
	db.EnableFailover(pol)

	sched, err := quasaq.ParseFaultSchedule("10s link-degrade srv-a 0.5\n40s link-restore srv-a\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	req := quasaq.Requirement{MinResolution: quasaq.ResVCD, MinFrameRate: 20, MinColorDepth: 8}
	if _, err := db.Deliver("srv-a", 1, req); err != nil {
		t.Fatal(err)
	}
	db.RunUntilIdle() // must terminate with the schedule drained

	if _, err := quasaq.ParseFaultSchedule("10s explode srv-a"); err == nil {
		t.Fatal("bad schedule accepted")
	}
	if err := db.InjectFaults(quasaq.FaultSchedule{
		{At: db.Now(), Kind: quasaq.FaultLinkDegrade, Target: "srv-c", Factor: 0.25},
		{At: db.Now(), Kind: quasaq.FaultLinkRestore, Target: "srv-c"},
	}); err != nil {
		t.Fatal(err)
	}
	db.RunUntilIdle()
	if err := db.CrashSite("nope"); err == nil {
		t.Fatal("unknown site accepted")
	}
}

// InjectFaults takes outside text, so an event earlier than the current
// virtual time is an error, not a simulator panic, and no event is armed.
func TestInjectFaultsRejectsPastEvents(t *testing.T) {
	db, err := quasaq.Open(quasaq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Advance(60 * time.Second)
	sched, err := quasaq.ParseFaultSchedule("70s link-degrade srv-b 0.5\n10s node-crash srv-a\n")
	if err != nil {
		t.Fatal(err)
	}
	err = db.InjectFaults(sched)
	if err == nil || !strings.Contains(err.Error(), "event 1 at 10s is before now 1m0s") {
		t.Fatalf("InjectFaults(past event) = %v, want an event-1 before-now error", err)
	}
	db.RunUntilIdle()
	if db.SiteDown("srv-a") {
		t.Fatal("srv-a crashed by a rejected schedule")
	}
}
