package experiments

import (
	"bytes"
	"strings"
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// detSLACfg shrinks the default sweep to two tiers and a short ramp so the
// determinism pin stays cheap.
func detSLACfg() SLAConfig {
	cfg := DefaultSLAConfig()
	cfg.Phases = []workload.Phase{
		{Rate: 1, Duration: simtime.Seconds(15)},
		{Rate: 8, Duration: simtime.Seconds(40)},
		{Rate: 1, Duration: simtime.Seconds(15)},
	}
	cfg.Tiers = []SLATier{cfg.Tiers[0], cfg.Tiers[3]} // none + gold
	return cfg
}

func TestSLACSVDeterministic(t *testing.T) {
	assertDeterministic(t, "sla", func(t *testing.T, workers int) []byte {
		points, err := RunSLA(detSLACfg(), runner.Options{Workers: workers, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, SLATable(points)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}

func TestSLATierSemantics(t *testing.T) {
	points, err := RunSLA(detSLACfg(), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	none, gold := points[0], points[1]
	if none.Tier != "none" || gold.Tier != "gold" {
		t.Fatalf("tier order = %s,%s", none.Tier, gold.Tier)
	}
	if none.Clause != "any" {
		t.Fatalf("control clause rendered %q", none.Clause)
	}
	if !strings.Contains(gold.Clause, "throughput >= 90000") {
		t.Fatalf("gold clause lost canonical terms: %q", gold.Clause)
	}
	// Without net terms nothing can be clause-unsatisfiable; with the gold
	// clause the admission gate must turn some rejections into typed ones.
	if none.Unsatisfiable != 0 {
		t.Fatalf("clause-free tier counted %d unsatisfiable", none.Unsatisfiable)
	}
	if gold.Unsatisfiable == 0 {
		t.Fatal("gold tier never hit ErrQoSUnsatisfiable under congestion")
	}
	for _, p := range points {
		if p.Queries == 0 || p.Admitted == 0 {
			t.Fatalf("%s: degenerate run %+v", p.Tier, p)
		}
		if p.QoERows != p.QoEViolations+p.QoERecovered {
			t.Fatalf("%s: qoe rows %d != violations %d + recovered %d",
				p.Tier, p.QoERows, p.QoEViolations, p.QoERecovered)
		}
		// The persisted history must agree with the in-process counters:
		// every declared violation wrote a row.
		if uint64(p.QoEViolations) != p.Guardian.Violations {
			t.Fatalf("%s: engine saw %d violation rows, guardian declared %d",
				p.Tier, p.QoEViolations, p.Guardian.Violations)
		}
		if p.Guardian.QoERecords != uint64(p.QoERows) {
			t.Fatalf("%s: guardian appended %d rows, engine holds %d",
				p.Tier, p.Guardian.QoERecords, p.QoERows)
		}
		perMetric := p.Guardian.LossViolations + p.Guardian.DelayViolations +
			p.Guardian.JitterViolations + p.Guardian.ThroughputViolations
		if perMetric != p.Guardian.Violations {
			t.Fatalf("%s: per-metric counters %d don't sum to violations %d",
				p.Tier, perMetric, p.Guardian.Violations)
		}
	}
}

func TestSLAUnknownTierAndBadClause(t *testing.T) {
	cfg := detSLACfg()
	if _, err := runSLAPoint(cfg, "platinum", 1); err == nil {
		t.Fatal("unknown tier accepted")
	}
	cfg.Tiers = append(cfg.Tiers, SLATier{Name: "broken", Clause: "delay >= 10"})
	if _, err := runSLAPoint(cfg, "broken", 1); err == nil {
		t.Fatal("wrong-direction clause accepted")
	}
}
