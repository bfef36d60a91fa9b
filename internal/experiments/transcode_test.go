package experiments

import (
	"bytes"
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

// detTranscodeCfg shrinks the default sweep to a test-sized horizon.
func detTranscodeCfg() TranscodeConfig {
	cfg := DefaultTranscodeConfig()
	cfg.Horizon = simtime.Seconds(40)
	return cfg
}

// TestTranscodeCSVDeterministic pins the workers=1 vs workers=8 contract
// for the farm sweep: the Pareto CSV must be byte-identical regardless of
// the worker-pool size.
func TestTranscodeCSVDeterministic(t *testing.T) {
	assertDeterministic(t, "transcode", func(t *testing.T, workers int) []byte {
		points, err := RunTranscode(detTranscodeCfg(), runner.Options{Workers: workers, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, TranscodeTable(points)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}

// TestTranscodeNeutralMatchesFlat is the experiment-level golden gate: the
// neutral farm variant must admit, complete, and QoS-satisfy exactly the
// deliveries the flat (inline) baseline does — the farm only adds its own
// job counters.
func TestTranscodeNeutralMatchesFlat(t *testing.T) {
	cfg := detTranscodeCfg()
	flat, err := runTranscodePoint(cfg, "flat", cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	neutral, err := runTranscodePoint(cfg, "neutral", cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Queries != neutral.Queries || flat.Admitted != neutral.Admitted ||
		flat.Rejected != neutral.Rejected || flat.Completed != neutral.Completed ||
		flat.QoSOK != neutral.QoSOK || flat.Failed != neutral.Failed {
		t.Fatalf("neutral farm diverged from flat baseline:\nflat:    %+v\nneutral: %+v", flat, neutral)
	}
	if flat.FarmRouted != 0 || flat.Farm.Jobs != 0 {
		t.Fatalf("flat baseline routed through a farm: %+v", flat)
	}
	if neutral.Farm.Jobs == 0 || neutral.FarmRouted == 0 {
		t.Fatalf("neutral farm carried no jobs: %+v", neutral.Farm)
	}
	if neutral.Farm.DeadlineMiss != 0 || neutral.Farm.Dollars != 0 {
		t.Fatalf("neutral farm missed deadlines or billed dollars: %+v", neutral.Farm)
	}
}

// TestTranscodeSweepShape sanity-checks the full default sweep: every
// variant settles, non-neutral fleets bill dollars, and the fast fleet's
// p99 startup beats the econ fleet's.
func TestTranscodeSweepShape(t *testing.T) {
	cfg := detTranscodeCfg()
	points, err := RunTranscode(cfg, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(cfg.Variants) {
		t.Fatalf("got %d points, want %d", len(points), len(cfg.Variants))
	}
	byKey := map[string]*TranscodePoint{}
	for _, p := range points {
		byKey[p.Variant] = p
		if p.Queries == 0 || p.Admitted == 0 {
			t.Fatalf("%s: empty run %+v", p.Variant, p)
		}
	}
	fast, econ := byKey["fast"], byKey["econ"]
	if fast.Farm.Dollars <= 0 || econ.Farm.Dollars <= 0 {
		t.Fatalf("priced fleets billed nothing: fast=%.4f econ=%.4f", fast.Farm.Dollars, econ.Farm.Dollars)
	}
	if fast.Farm.Dollars <= econ.Farm.Dollars {
		t.Fatalf("fast fleet (%.4f) should cost more than econ (%.4f)", fast.Farm.Dollars, econ.Farm.Dollars)
	}
	if fp, ep := fast.Startup.Percentile(99), econ.Startup.Percentile(99); fp >= ep {
		t.Fatalf("fast p99 startup %.1f ms should beat econ %.1f ms", fp, ep)
	}
}
