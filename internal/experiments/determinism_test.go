package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

// The runner contract: output bytes depend only on (config, seed,
// replicas) — never on the worker count or goroutine scheduling. Every
// experiment that exports CSV is pinned here for workers=1 vs workers=8 and
// for two repeated runs with the same seed. The workers=1 bytes are also
// pinned across commits: testdata/golden.txt holds one "name sha256" line
// per experiment, and `go test ./internal/experiments -update` rewrites the
// lines of the tests that ran.

var update = flag.Bool("update", false, "rewrite testdata/golden.txt with the current output digests")

const goldenPath = "testdata/golden.txt"

func detThroughputCfg() ThroughputConfig {
	return ThroughputConfig{Seed: 11, Horizon: simtime.Seconds(120), Bucket: simtime.Seconds(20)}
}

// renderCSV runs an experiment under the given worker count and returns its
// CSV bytes.
type csvRun func(t *testing.T, workers int) []byte

func assertDeterministic(t *testing.T, name string, run csvRun) {
	t.Helper()
	serial := run(t, 1)
	parallel := run(t, 8)
	again := run(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("%s: workers=1 and workers=8 CSVs differ:\n%s\nvs\n%s", name, serial, parallel)
	}
	if !bytes.Equal(parallel, again) {
		t.Fatalf("%s: two identical runs differ", name)
	}
	if len(bytes.TrimSpace(serial)) == 0 {
		t.Fatalf("%s: empty CSV", name)
	}
	checkGolden(t, name, serial)
}

// checkGolden compares the digest of an experiment's output with its line
// in golden.txt, or rewrites that line under -update.
func checkGolden(t *testing.T, name string, out []byte) {
	t.Helper()
	sum := fmt.Sprintf("%x", sha256.Sum256(out))
	golden, err := readGolden()
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	if *update {
		golden[name] = sum
		if err := writeGolden(golden); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := golden[name]
	if !ok {
		t.Fatalf("%s: no line in %s (run go test ./internal/experiments -update)", name, goldenPath)
	}
	if sum != want {
		t.Fatalf("%s: output digest %s, %s has %s (a deliberate change reruns with -update and says why)",
			name, sum, goldenPath, want)
	}
}

func readGolden() (map[string]string, error) {
	golden := map[string]string{}
	f, err := os.Open(goldenPath)
	if err != nil {
		return golden, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", goldenPath, sc.Text())
		}
		golden[fields[0]] = fields[1]
	}
	return golden, sc.Err()
}

func writeGolden(golden map[string]string) error {
	names := make([]string, 0, len(golden))
	for name := range golden {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, golden[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, []byte(b.String()), 0o644)
}

func TestThroughputCSVDeterministic(t *testing.T) {
	assertDeterministic(t, "fig6", func(t *testing.T, workers int) []byte {
		series, err := RunSweep(NewFig6Scenario(detThroughputCfg()), runner.Options{Workers: workers, Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, SeriesTable(series)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}

func TestAblationCSVDeterministic(t *testing.T) {
	assertDeterministic(t, "ablation", func(t *testing.T, workers int) []byte {
		series, err := RunSweep(NewAblationScenario(detThroughputCfg()), runner.Options{Workers: workers, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, SeriesTable(series)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}

func TestFig5CSVDeterministic(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Frames = 120
	assertDeterministic(t, "fig5", func(t *testing.T, workers int) []byte {
		res, err := RunFig5(cfg, runner.Options{Workers: workers, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, Fig5Table(res)); err != nil {
			t.Fatal(err)
		}
		// Fold the merged summaries in too: Table 2's moments must also be
		// scheduling-independent.
		buf.WriteString(FormatTable2(Table2(res)))
		return buf.Bytes()
	})
}

func TestChaosCSVDeterministic(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Horizon = simtime.Seconds(300)
	assertDeterministic(t, "chaos", func(t *testing.T, workers int) []byte {
		res, err := RunChaos(cfg, runner.Options{Workers: workers, Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, ChaosTable(res)); err != nil {
			t.Fatal(err)
		}
		// The merged metrics registry must also export identically.
		if err := res.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}

func TestDynamicDeterministic(t *testing.T) {
	assertDeterministic(t, "dynamic", func(t *testing.T, workers int) []byte {
		res, err := RunDynamicReplication(detThroughputCfg(), runner.Options{Workers: workers, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		return []byte(FormatDynamic(res))
	})
}

// A single-replica sweep must reproduce the plain serial driver exactly:
// replica 0 runs the base seed itself.
func TestSingleReplicaMatchesSerialRun(t *testing.T) {
	cfg := detThroughputCfg()
	direct, err := RunThroughput(SysQuaSAQ, cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := RunSweep(NewFig6Scenario(cfg), runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	swept := series[2] // quasaq point
	if swept.Queries != direct.Queries || swept.Admitted != direct.Admitted ||
		swept.Rejected != direct.Rejected || swept.QoSOK != direct.QoSOK {
		t.Fatalf("swept quasaq point %+v differs from direct run %+v", swept, direct)
	}
}

// Replica streams are independent: the merged counters over N replicas are
// the sum of the N individual runs, each under its derived seed.
func TestReplicaMergeMatchesIndividualRuns(t *testing.T) {
	cfg := detThroughputCfg()
	const reps = 3
	var wantQueries, wantQoSOK int
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = simtime.ReplicaSeed(cfg.Seed, i)
		s, err := RunThroughput(SysQuaSAQ, c)
		if err != nil {
			t.Fatal(err)
		}
		wantQueries += s.Queries
		wantQoSOK += s.QoSOK
	}
	series, err := RunSweep(NewFig6Scenario(cfg), runner.Options{Workers: 4, Replicas: reps})
	if err != nil {
		t.Fatal(err)
	}
	got := series[2]
	if got.Reps() != reps {
		t.Fatalf("Reps = %d, want %d", got.Reps(), reps)
	}
	if got.Queries != wantQueries || got.QoSOK != wantQoSOK {
		t.Fatalf("merged counters %d/%d, want %d/%d", got.Queries, got.QoSOK, wantQueries, wantQoSOK)
	}
}

func TestAdmissionCSVDeterministic(t *testing.T) {
	cfg := DefaultAdmissionConfig()
	cfg.Horizon = simtime.Seconds(40)
	cfg.Loads = []float64{1, 4}
	assertDeterministic(t, "admission", func(t *testing.T, workers int) []byte {
		points, err := RunAdmission(cfg, runner.Options{Workers: workers, Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, AdmissionTable(points)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}
