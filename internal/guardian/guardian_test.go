package guardian

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"quasaq/internal/core"
)

func TestStatsSaved(t *testing.T) {
	s := Stats{SavedStepDown: 2, SavedRenegotiate: 3, SavedMigrate: 5}
	if s.Saved() != 10 {
		t.Fatalf("Saved() = %d, want 10", s.Saved())
	}
}

func TestViolationErrorChain(t *testing.T) {
	v := &Violation{Metric: MetricLoss, Observed: 0.4, Threshold: 0.05, Windows: 3, Site: "srv-a", Video: "clip"}
	if !strings.Contains(v.Error(), "loss") || !strings.Contains(v.Error(), "srv-a") {
		t.Fatalf("violation text = %q", v.Error())
	}
	// The abandonment chain shape: sentinel wrapping the violation.
	err := fmt.Errorf("%w: %w", ErrQoSAbandoned, v)
	if !errors.Is(err, ErrQoSAbandoned) {
		t.Fatalf("chain misses sentinel: %v", err)
	}
	var got *Violation
	if !errors.As(err, &got) || got.Metric != MetricLoss {
		t.Fatalf("chain misses violation: %v", err)
	}
}

// judgeWindow runs one sampling window of mon whose offered frames number
// 100, shed of them: the baseline moves, not the session, so the window
// carries exactly that loss and no delay samples.
func judgeWindow(mon *monitor, shed int) {
	mon.last = mon.sess.Observed()
	mon.last.Frames -= 100 - shed
	mon.last.FramesShed -= shed
	mon.window()
}

// TestViolationAfterBreachWindows pins the hysteresis at its edge:
// BreachWindows−1 consecutive breaching windows declare nothing, a clean
// window restarts the count, and the BreachWindows-th consecutive one
// declares a violation that reports BreachWindows windows.
func TestViolationAfterBreachWindows(t *testing.T) {
	g, ds := guardedWorld(t, baseRequirement())
	d := ds[0]
	mon := g.monitors[d]
	var violations int
	g.SetObserver(func(ev Event) {
		if ev.Kind == "violation" {
			violations++
		}
	})
	// Shed on the first violation, so it surfaces in the error chain.
	mon.rung = RungAbandon
	for range 2 {
		for i := 1; i < BreachWindows; i++ {
			judgeWindow(mon, 50)
		}
		if violations != 0 || d.Failed() {
			t.Fatalf("%d breaching windows declared a violation", BreachWindows-1)
		}
		judgeWindow(mon, 0)
	}
	if st := g.Stats(); st.Breaches != 2*(BreachWindows-1) || st.Windows != 2*BreachWindows {
		t.Fatalf("stats = %+v, want %d breaches in %d windows", st, 2*(BreachWindows-1), 2*BreachWindows)
	}
	for i := 0; i < BreachWindows; i++ {
		judgeWindow(mon, 50)
	}
	if violations != 1 || !d.Failed() {
		t.Fatalf("%d consecutive breaching windows: %d violations, failed=%v; want one, shed",
			BreachWindows, violations, d.Failed())
	}
	_, err := g.mgr.Renegotiate(d, baseRequirement(), core.ServiceOptions{})
	var v *Violation
	if !errors.As(err, &v) || v.Metric != MetricLoss || v.Windows != BreachWindows {
		t.Fatalf("terminal error %v, want a loss violation over %d windows", err, BreachWindows)
	}
}
