package experiments

import (
	"bytes"
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// detEdgeCfg shrinks the default curve to a short burst so the determinism
// pin and the semantics checks stay cheap.
func detEdgeCfg() EdgeExpConfig {
	cfg := DefaultEdgeExpConfig()
	cfg.Phases = []workload.Phase{
		{Rate: 1, Duration: simtime.Seconds(15)},
		{Rate: 5, Duration: simtime.Seconds(30)},
		{Rate: 1, Duration: simtime.Seconds(15)},
	}
	return cfg
}

func TestEdgeCSVDeterministic(t *testing.T) {
	assertDeterministic(t, "edge", func(t *testing.T, workers int) []byte {
		points, err := RunEdge(detEdgeCfg(), runner.Options{Workers: workers, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, EdgeTable(points)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}

func TestEdgeModeSemantics(t *testing.T) {
	points, err := RunEdge(detEdgeCfg(), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	off, on := points[0], points[1]
	if off.Mode != EdgeModeOff || on.Mode != EdgeModeOn {
		t.Fatalf("mode order = %s,%s", off.Mode, on.Mode)
	}
	// Same seed, same arrival process: both modes face the same queries.
	if off.Queries != on.Queries {
		t.Fatalf("arrival processes diverged: %d vs %d queries", off.Queries, on.Queries)
	}
	// The edgeless control must be genuinely edge-free.
	if off.SplitAdmissions != 0 || off.Handovers != 0 {
		t.Fatalf("edgeless mode admitted split plans: %+v", off)
	}
	if off.EdgeBytes != 0 || off.OffloadFraction() != 0 {
		t.Fatalf("edgeless mode attributed bytes to an edge: %+v", off)
	}
	if off.Edge.Installs != 0 || off.Edge.Hits != 0 {
		t.Fatalf("edgeless mode has cache activity: %+v", off.Edge)
	}
	// The edge mode must exercise the whole tier under this skew.
	if on.Edge.Installs == 0 || on.Edge.Hits == 0 {
		t.Fatalf("edge mode never warmed the cache: %+v", on.Edge)
	}
	if on.SplitAdmissions == 0 {
		t.Fatal("edge mode never won a split admission")
	}
	if on.Handovers > on.SplitAdmissions {
		t.Fatalf("more handovers (%d) than split admissions (%d)",
			on.Handovers, on.SplitAdmissions)
	}
	if on.EdgeBytes == 0 || on.OffloadFraction() <= 0 {
		t.Fatalf("edge mode served no bytes from the edge: %+v", on)
	}
	for _, p := range points {
		if p.Queries == 0 || p.Admitted == 0 {
			t.Fatalf("%s: degenerate run %+v", p.Mode, p)
		}
		if p.Admitted+p.Rejected != p.Queries {
			t.Fatalf("%s: admitted %d + rejected %d != queries %d",
				p.Mode, p.Admitted, p.Rejected, p.Queries)
		}
		// The run drains to idle: every admitted delivery concluded.
		if p.Completed+p.Failed != p.Admitted {
			t.Fatalf("%s: completed %d + failed %d != admitted %d",
				p.Mode, p.Completed, p.Failed, p.Admitted)
		}
		if got := len(p.Startup.Values()); got != p.Admitted {
			t.Fatalf("%s: %d startup samples for %d admissions", p.Mode, got, p.Admitted)
		}
	}
}

func TestEdgeBadConfig(t *testing.T) {
	if _, err := runEdgePoint(detEdgeCfg(), "fog", 1); err == nil {
		t.Fatal("unknown mode accepted")
	}
	cfg := detEdgeCfg()
	cfg.BaseLoad = 0
	if _, err := runEdgePoint(cfg, EdgeModeOn, 1); err == nil {
		t.Fatal("non-positive base load accepted")
	}
	cfg = detEdgeCfg()
	cfg.Phases = nil
	if _, err := runEdgePoint(cfg, EdgeModeOn, 1); err == nil {
		t.Fatal("empty phase schedule accepted")
	}
}
