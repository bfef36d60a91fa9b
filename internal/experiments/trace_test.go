package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"quasaq/internal/runner"
)

// Acceptance test for the observability layer: a chaos run with tracing on
// must export valid Chrome trace_event JSON in which every admitted session
// carries its pipeline spans (plan enumeration, reservation, streaming) and
// every mid-stream failure carries a failover span.
func TestChaosTraceCoversEverySession(t *testing.T) {
	cfg := shortChaosConfig()
	cfg.Trace = true
	res, err := RunChaos(cfg, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Trace not populated with cfg.Trace set")
	}
	if res.Metrics == nil {
		t.Fatal("Metrics registry not exposed on the result")
	}

	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	counts := map[string]int{}
	siteDownRejects := 0
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" {
			continue
		}
		counts[e.Name+"/"+e.Phase]++
		if e.Name == "reject" && e.Args["cause"] == "query site down" {
			siteDownRejects++
		}
		if e.TS < 0 {
			t.Fatalf("negative timestamp on %q", e.Name)
		}
	}
	spanTotal := func(name string) int { return counts[name+"/X"] + counts[name+"/B"] }

	// Every query either bounces off a down query site or reaches plan
	// enumeration.
	if got := spanTotal("plan_enumerate"); got < res.Queries-siteDownRejects {
		t.Fatalf("plan_enumerate spans = %d, want >= %d (queries %d minus %d site-down rejects)",
			got, res.Queries-siteDownRejects, res.Queries, siteDownRejects)
	}
	// Every admitted session reserved and streamed. Streams may still be
	// open ("B") at the horizon; failovers and best-effort fallbacks open
	// additional stream spans, so admitted is a floor.
	if got := counts["reserve/X"]; got < res.Admitted {
		t.Fatalf("reserve spans = %d, want >= %d admissions", got, res.Admitted)
	}
	if got := spanTotal("stream"); got < res.Admitted {
		t.Fatalf("stream spans = %d, want >= %d (one per admitted session)", got, res.Admitted)
	}
	if got := counts["admit/i"]; got != res.Admitted {
		t.Fatalf("admit instants = %d, want exactly %d", got, res.Admitted)
	}
	if got := counts["reject/i"]; got != res.Rejected {
		t.Fatalf("reject instants = %d, want exactly %d", got, res.Rejected)
	}
	// Every detected session failure opens a failover span.
	if got := spanTotal("failover"); uint64(got) != res.Stats.SessionFailures {
		t.Fatalf("failover spans = %d, want %d (one per session failure)", got, res.Stats.SessionFailures)
	}
	if counts["gop/i"] == 0 {
		t.Fatal("no GOP progress instants recorded")
	}

	// The registry view agrees with the trace-derived counts.
	var sawQueries bool
	for _, m := range res.Metrics.Snapshot() {
		if m.Name == "quasaq_queries_total" {
			sawQueries = true
			if int(m.Value) != res.Queries {
				t.Fatalf("quasaq_queries_total = %v, want %d", m.Value, res.Queries)
			}
		}
	}
	if !sawQueries {
		t.Fatal("quasaq_queries_total missing from the registry snapshot")
	}
}

// Tracing must not perturb the simulation: the same seed with and without
// tracing yields identical outcome statistics.
func TestChaosTraceDoesNotPerturbRun(t *testing.T) {
	plain, err := RunChaos(shortChaosConfig(), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortChaosConfig()
	cfg.Trace = true
	traced, err := RunChaos(cfg, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != traced.Stats {
		t.Fatalf("tracing changed the run:\nplain:  %+v\ntraced: %+v", plain.Stats, traced.Stats)
	}
	if plain.Admitted != traced.Admitted || plain.Rejected != traced.Rejected {
		t.Fatalf("admission outcomes diverge: %d/%d vs %d/%d",
			plain.Admitted, plain.Rejected, traced.Admitted, traced.Rejected)
	}
}
