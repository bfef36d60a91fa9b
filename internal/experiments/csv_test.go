package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

func TestSeriesTableCSV(t *testing.T) {
	s, err := RunThroughput(SysQuaSAQ, ThroughputConfig{
		Seed: 5, Horizon: simtime.Seconds(60), Bucket: simtime.Seconds(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, SeriesTable([]*Series{s})); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(s.Outstanding) {
		t.Fatalf("csv rows = %d, want header + %d", len(lines), len(s.Outstanding))
	}
	if !strings.HasPrefix(lines[0], "time_s,system,outstanding") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "VDBMS+QuaSAQ") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestFig5TableSaveCSV(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Frames = 50
	res, err := RunFig5(cfg, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := SaveCSV(dir, "fig5.csv", Fig5Table(res))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+4*50 {
		t.Fatalf("rows = %d, want %d", len(lines), 1+4*50)
	}
	if filepath.Base(path) != "fig5.csv" {
		t.Fatalf("path = %s", path)
	}
}
