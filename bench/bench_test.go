package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quasaq"
)

func TestFastestPicksSmallestWallAndRunnerUp(t *testing.T) {
	best, second := fastest([]float64{3.1, 2.2, 2.9, 2.0, 2.4})
	if best != 3 || second != 1 {
		t.Fatalf("fastest = %d, %d; want 3, 1", best, second)
	}
	if best, second := fastest([]float64{1.5}); best != 0 || second != -1 {
		t.Fatalf("one rep: fastest = %d, %d; want 0, -1", best, second)
	}
	if best, second := fastest([]float64{1, 2, 3}); best != 0 || second != 1 {
		t.Fatalf("ascending: fastest = %d, %d; want 0, 1", best, second)
	}
}

func TestRepSizesAreWholeBlocks(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []int{1, 7, 14, 30, 60} {
			n := w.scaledSize(seconds)
			if n < w.block || n%w.block != 0 {
				t.Errorf("%s at %d s: %d queries is not a whole number of %d-query blocks", w.name, seconds, n, w.block)
			}
		}
		if got := w.scaledSize(defaultSeconds); got != w.block*w.blocks {
			t.Errorf("%s default size = %d, want %d", w.name, got, w.block*w.blocks)
		}
	}
}

// smallSize is a fiftieth of the default rep.
func smallSize(w *workload) int { return max(w.block*w.blocks/50, 8) }

// Every workload, at a fiftieth of its size, passes the per-rep checks on
// both worlds, does the same work on both (same counts and fingerprint),
// and yields every end-to-end and per-layer metric as a finite number.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		n := smallSize(w)
		rep, err := runRep(w, 3, n, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := runRep(w, 3, n, newTracer(8*n))
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		res, err := summarize(w, []*repResult{rep}, traced)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts.Attempted != n || res.Counts.Failed != 0 {
			t.Errorf("%s: attempted %d of %d, failed %d", w.name, res.Counts.Attempted, n, res.Counts.Failed)
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				t.Errorf("%s: %s = %v, want a finite positive number", w.name, m.Name, v.Value)
			}
		}
		if len(res.Layers) != len(perLayer) {
			t.Errorf("%s: %d layer metrics, want %d", w.name, len(res.Layers), len(perLayer))
		}
		line := contractLine(res, true)
		if !strings.Contains(line, `"correct":true`) || !strings.Contains(line, `"core.service.us_per_call"`) {
			t.Errorf("%s: contract line %s", w.name, line)
		}
	}
}

func TestSeedDecidesTheQueryList(t *testing.T) {
	for _, w := range workloads {
		n := smallSize(w)
		a, again, b := w.build(5, n), w.build(5, n), w.build(6, n)
		same, differs := true, false
		for i := range a.queries {
			same = same && a.queries[i].sql == again.queries[i].sql && a.queries[i].at == again.queries[i].at
			differs = differs || a.queries[i].sql != b.queries[i].sql || a.queries[i].site != b.queries[i].site
		}
		if !same {
			t.Errorf("%s: seed 5 gave two different query lists", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 5 and 6 gave the same query list", w.name)
		}
	}
}

func TestGeneratedSQLRoundTripsThroughParseRequirement(t *testing.T) {
	for _, w := range workloads {
		for _, q := range w.build(7, smallSize(w)).queries {
			_, clause, ok := strings.Cut(q.sql, "WITH QOS (")
			if !ok {
				t.Fatalf("%s: no QoS clause in %q", w.name, q.sql)
			}
			got, err := quasaq.ParseRequirement(strings.TrimSuffix(clause, ")"))
			if err != nil {
				t.Fatalf("%s: %q: %v", w.name, q.sql, err)
			}
			if got.String() != q.req.String() {
				t.Fatalf("%s: clause of %q parses to %s, generated from %s", w.name, q.sql, got, q.req)
			}
		}
	}
}

// BENCHMARK.json repeats the metric and workload tables for the driver.
func TestBenchmarkJSONAgreesWithTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, workloads are sized for %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i] != (metric{m.Name, m.Unit, m.Better, m.Bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], m)
			}
		}
	}
	check("end-to-end", f.EndToEnd, endToEnd)
	check("per-layer", f.PerLayer, perLayer)
}

// writeResults writes a results file holding one admit-churn-shaped run of
// the named workload: every metric 1 except queries_per_s.
func writeResults(t *testing.T, workload string, seed int64, qps, spread float64) string {
	t.Helper()
	r := &runResult{Workload: workload, Metrics: map[string]metricValue{}, RepSpread: map[string]float64{}}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = metricValue{1, m.Unit}
	}
	r.Metrics["queries_per_s"] = metricValue{qps, "1/s"}
	r.RepSpread["queries_per_s"] = spread
	data, err := json.Marshal(newResultsFile("test", seed, defaultSeconds, defaultReps, []*runResult{r}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	verdict := func(a, b string) (string, error) {
		var out strings.Builder
		err := compareFiles(&out, a, b)
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "queries_per_s") {
				f := strings.Fields(line)
				return f[len(f)-1], err
			}
		}
		t.Fatalf("no queries_per_s row in:\n%s", out.String())
		return "", nil
	}
	base := writeResults(t, "admit-churn", 1, 1000, 0.01)
	for _, c := range []struct {
		qps, spread float64
		want        string
		fails       bool
	}{
		{1020, 0.01, "unchanged", false},
		{1020, 0.5, "unresolved", false},
		{1400, 0.01, "improved", false},
		{700, 0.01, "REGRESSED", true},
	} {
		got, err := verdict(base, writeResults(t, "admit-churn", 1, c.qps, c.spread))
		if got != c.want || (err != nil) != c.fails {
			t.Errorf("1000 -> %v q/s at spread %v: verdict %s (err %v), want %s", c.qps, c.spread, got, err, c.want)
		}
	}
	if got, err := verdict(base, base); got != "unchanged" || err != nil {
		t.Errorf("a file against itself: verdict %s (err %v), want unchanged", got, err)
	}
}

// A comparison that is not like for like is an error, not a pass.
func TestCompareRejectsUnlikeFiles(t *testing.T) {
	base := writeResults(t, "admit-churn", 1, 1000, 0.01)
	for name, other := range map[string]string{
		"a workload dropped and another added": writeResults(t, "reject-storm", 1, 1000, 0.01),
		"another seed":                         writeResults(t, "admit-churn", 2, 1000, 0.01),
	} {
		var out strings.Builder
		if err := compareFiles(&out, base, other); err == nil {
			t.Errorf("%s: compared without error:\n%s", name, out.String())
		}
	}
}
