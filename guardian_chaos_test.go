package quasaq

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"quasaq/internal/faults"
)

// chaosGuardianCfg samples fast so chaos tests converge in seconds of
// virtual time: two-second windows, two breaching windows to declare a
// violation, two clean ones to recover.
func chaosGuardianCfg() GuardianConfig {
	return GuardianConfig{
		Interval:      2 * time.Second,
		BreachWindows: 2,
		ClearWindows:  2,
		// Low enough to keep judging even after a rung lands on a heavily
		// frame-dropped plan (~1.6 fps delivers ~3 frames per window).
		MinSamples: 2,
	}
}

// injectNow applies one link fault to a site at the current virtual time;
// it takes effect as soon as the clock next moves.
func injectNow(db *DB, kind faults.Kind, site string, factor float64) error {
	return db.InjectFaults(FaultSchedule{{At: db.Now(), Kind: kind, Target: site, Factor: factor}})
}

// observed is what the delivery's live session observed: zero while no
// session is bound.
func observed(d *Delivery) ObservedQoS {
	if d.Session == nil {
		return ObservedQoS{}
	}
	return d.Session.Observed()
}

// terminalErr is the error an abandoned delivery reports to a caller that
// tries to re-plan it; Renegotiate wraps the delivery's terminal cause.
func terminalErr(t *testing.T, db *DB, d *Delivery) error {
	t.Helper()
	nd, err := db.Renegotiate(d, Requirement{})
	if nd != nil || err == nil {
		t.Fatalf("renegotiating an abandoned delivery = %v, %v; want its terminal error", nd, err)
	}
	return err
}

// TestGuardianLadderOrderUnderChaos pins the escalation order: cross
// traffic squeezes every site so no rung can actually fix the stream, and
// the guardian must walk step-down → renegotiate → migrate → abandon in
// exactly that order, finishing with a typed ErrQoSAbandoned that names
// the violated metric.
func TestGuardianLadderOrderUnderChaos(t *testing.T) {
	db := openLoaded(t, Options{})
	if err := db.EnableGuardian(chaosGuardianCfg()); err != nil {
		t.Fatal(err)
	}
	var rungs []string
	var abandoned *Delivery
	if err := db.OnGuardianEvent(func(ev GuardianEvent) {
		switch ev.Kind {
		case "stepdown", "renegotiate", "migrate", "abandon":
			rungs = append(rungs, ev.Kind)
			if ev.Kind == "abandon" {
				abandoned = ev.Delivery
			}
		case "recovered":
			t.Errorf("spurious recovery at %v while every link is congested", db.Now())
		}
	}); err != nil {
		t.Fatal(err)
	}
	// DVD-grade so the renegotiate rung has cheaper tiers to fall to;
	// video 7 runs 120 s, far longer than the whole escalation takes.
	d, err := db.Deliver("srv-a", 7, Requirement{MinResolution: ResDVD, MinFrameRate: 20})
	if err != nil {
		t.Fatal(err)
	}
	db.Advance(2 * time.Second)
	// Cross traffic on every site: migration has nowhere good to go.
	for _, site := range db.Sites() {
		if err := injectNow(db, FaultLinkCongest, site, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	db.RunUntilIdle()
	want := []string{"stepdown", "renegotiate", "migrate", "abandon"}
	if fmt.Sprint(rungs) != fmt.Sprint(want) {
		t.Fatalf("ladder fired %v, want %v", rungs, want)
	}
	if abandoned == nil || !abandoned.Failed() {
		t.Fatalf("abandoned delivery not marked failed: %+v", abandoned)
	}
	abandonErr := terminalErr(t, db, abandoned)
	if !errors.Is(abandonErr, ErrQoSAbandoned) {
		t.Fatalf("abandon err = %v, want ErrQoSAbandoned", abandonErr)
	}
	var v *QoSViolation
	if !errors.As(abandonErr, &v) {
		t.Fatalf("abandon err carries no *QoSViolation: %v", abandonErr)
	}
	if v.Metric.String() != "loss" {
		t.Fatalf("violated metric = %s, want loss under congestion", v.Metric)
	}
	if v.Windows != chaosGuardianCfg().BreachWindows {
		t.Fatalf("violation windows = %d, want %d", v.Windows, chaosGuardianCfg().BreachWindows)
	}
	// The original handle was renegotiated away mid-ladder; the shed one is
	// its successor, not the handle Deliver returned.
	if abandoned == d {
		t.Fatal("renegotiate rung never produced a successor delivery")
	}
	st := db.GuardianStats()
	if st.StepDowns != 1 || st.Renegotiates != 1 || st.Migrations != 1 || st.Abandons != 1 {
		t.Fatalf("rung counters = %+v, want one firing each", st)
	}
	if st.Saved() != 0 {
		t.Fatalf("saved = %d for a shed session", st.Saved())
	}
}

// TestGuardianRecoveryStopsEscalation drives one step-down with moderate
// congestion, clears the link, and requires the guardian to stand down:
// a recovery event, no higher rungs, and the session completing counts as
// saved by rung 1.
func TestGuardianRecoveryStopsEscalation(t *testing.T) {
	db := openLoaded(t, Options{})
	if err := db.EnableGuardian(chaosGuardianCfg()); err != nil {
		t.Fatal(err)
	}
	recovered := false
	saved := false
	if err := db.OnGuardianEvent(func(ev GuardianEvent) {
		switch ev.Kind {
		case "recovered":
			recovered = true
		case "saved":
			saved = true
		case "renegotiate", "migrate", "abandon":
			t.Errorf("escalated to %s after the link recovered", ev.Kind)
		}
	}); err != nil {
		t.Fatal(err)
	}
	d, err := db.Deliver("srv-a", 3, Requirement{MinResolution: ResDVD, MinFrameRate: 20}) // 60 s video
	if err != nil {
		t.Fatal(err)
	}
	db.Advance(2 * time.Second)
	if err := injectNow(db, FaultLinkCongest, d.Plan.DeliverySite, 0.1); err != nil {
		t.Fatal(err)
	}
	// Clear the congestion the moment the first rung fires, before a second
	// violation can escalate.
	for db.GuardianStats().StepDowns == 0 {
		if db.Now() > 30*time.Second {
			t.Fatal("guardian never stepped down under congestion")
		}
		db.Advance(time.Second / 4)
	}
	if err := injectNow(db, FaultLinkCongest, d.Plan.DeliverySite, 1); err != nil {
		t.Fatal(err)
	}
	db.RunUntilIdle()
	if !recovered {
		t.Fatal("no recovery event after the congestion cleared")
	}
	if !saved {
		t.Fatal("violated-but-completed session not recorded as saved")
	}
	if d.Failed() || !d.Session.Done() {
		t.Fatalf("delivery failed=%v done=%v, want a completed stream", d.Failed(), d.Session.Done())
	}
	st := db.GuardianStats()
	if st.StepDowns != 1 || st.Renegotiates != 0 || st.Migrations != 0 || st.Abandons != 0 {
		t.Fatalf("rung counters = %+v, want exactly one step-down", st)
	}
	if st.SavedStepDown != 1 {
		t.Fatalf("saved-by-stepdown = %d, want 1", st.SavedStepDown)
	}
	if st.ViolatedSessions != 1 {
		t.Fatalf("violated sessions = %d, want 1", st.ViolatedSessions)
	}
}

// TestGuardianIdleMatchesDisabledGolden runs the same clean workload with
// the guardian on and off: with no violations the guardian must be a pure
// observer — outcome stats and every session's observed QoS identical.
func TestGuardianIdleMatchesDisabledGolden(t *testing.T) {
	run := func(withGuardian bool) string {
		db := openLoaded(t, Options{})
		if withGuardian {
			if err := db.EnableGuardian(chaosGuardianCfg()); err != nil {
				t.Fatal(err)
			}
		}
		var ds []*Delivery
		for i, site := range db.Sites() {
			d, err := db.Deliver(site, VideoID(1+i), Requirement{MinResolution: ResVCD, MaxResolution: ResCIF})
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, d)
		}
		db.RunUntilIdle()
		fp := fmt.Sprintf("%+v\n", db.Stats())
		for _, d := range ds {
			fp += fmt.Sprintf("%+v\n", observed(d))
		}
		if withGuardian {
			st := db.GuardianStats()
			if st.Watched == 0 || st.Windows == 0 {
				t.Fatalf("guardian never sampled: %+v", st)
			}
			if st.Violations != 0 || st.Breaches != 0 || st.StepDowns+st.Renegotiates+st.Migrations+st.Abandons != 0 {
				t.Fatalf("guardian acted on a clean workload: %+v", st)
			}
		}
		return fp
	}
	off := run(false)
	on := run(true)
	if off != on {
		t.Fatalf("guardian changed a violation-free run:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	checkGolden(t, "guardian-idle", on)
}

// TestGuardianCustomLadderAbandonError exercises a ladder of just the
// abandon rung: the first declared violation sheds the session, and the
// public error chain exposes both the sentinel and the violation detail.
func TestGuardianCustomLadderAbandonError(t *testing.T) {
	db := openLoaded(t, Options{})
	cfg := chaosGuardianCfg()
	cfg.Ladder = []GuardianRung{GuardianAbandon}
	if err := db.EnableGuardian(cfg); err != nil {
		t.Fatal(err)
	}
	d, err := db.Deliver("srv-b", 5, Requirement{MinResolution: ResDVD, MinFrameRate: 20})
	if err != nil {
		t.Fatal(err)
	}
	db.Advance(2 * time.Second)
	if err := injectNow(db, FaultLinkCongest, d.Plan.DeliverySite, 0.001); err != nil {
		t.Fatal(err)
	}
	db.RunUntilIdle()
	if !d.Failed() {
		t.Fatal("delivery survived an abandon-only ladder under congestion")
	}
	abandonErr := terminalErr(t, db, d)
	if !errors.Is(abandonErr, ErrQoSAbandoned) {
		t.Fatalf("err = %v, want ErrQoSAbandoned", abandonErr)
	}
	var v *QoSViolation
	if !errors.As(abandonErr, &v) {
		t.Fatalf("err carries no *QoSViolation: %v", abandonErr)
	}
	if v.Metric.String() != "loss" || v.Site != d.Plan.DeliverySite {
		t.Fatalf("violation = %+v, want loss at %s", v, d.Plan.DeliverySite)
	}
	if st := db.GuardianStats(); st.Abandons != 1 || st.StepDowns != 0 {
		t.Fatalf("stats = %+v, want a single abandon and nothing else", st)
	}
}

// TestGuardianCoexistsWithFailoverOnDegradedLink degrades a link hard
// enough to revoke the stream's reservation mid-stream. That fault belongs
// to the failover machinery, not the guardian: the session must resume on
// an alternate replica with no spurious guardian escalation, and the
// guardian must re-baseline on the swapped session rather than judging it
// against the dead one's accounting.
func TestGuardianCoexistsWithFailoverOnDegradedLink(t *testing.T) {
	db := openLoaded(t, Options{})
	db.EnableFailover(DefaultFailoverPolicy())
	if err := db.EnableGuardian(chaosGuardianCfg()); err != nil {
		t.Fatal(err)
	}
	if err := db.OnGuardianEvent(func(ev GuardianEvent) {
		switch ev.Kind {
		case "stepdown", "renegotiate", "migrate", "abandon":
			t.Errorf("guardian fired %s on a fault the failover path owns", ev.Kind)
		}
	}); err != nil {
		t.Fatal(err)
	}
	req := Requirement{MinResolution: ResVCD, MinFrameRate: 20, MinColorDepth: 8}
	d, err := db.Deliver("srv-b", 1, req) // 30 s video
	if err != nil {
		t.Fatal(err)
	}
	db.Advance(5 * time.Second)
	from := d.Plan.DeliverySite
	if err := injectNow(db, FaultLinkDegrade, from, 0.01); err != nil { // revokes the reservation
		t.Fatal(err)
	}
	db.RunUntilIdle()
	if n := db.Stats().Failovers; n != 1 || d.Plan.DeliverySite == from {
		t.Fatalf("failovers=%d site=%s (from %s), want one migration off the degraded link",
			n, d.Plan.DeliverySite, from)
	}
	if d.Failed() || !d.Session.Done() {
		t.Fatalf("failed=%v done=%v, want a completed stream", d.Failed(), d.Session.Done())
	}
	if st := db.GuardianStats(); st.Abandons != 0 || st.StepDowns+st.Renegotiates+st.Migrations != 0 {
		t.Fatalf("guardian acted on a failover-owned fault: %+v", st)
	}
}
