package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"quasaq/internal/simtime"
)

// CSV export: each figure's series can be written as CSV for external
// plotting, one file per figure, one row per sample. Every experiment emits
// through one code path — a Table built by its *Table function and written
// by WriteTable — so quoting, line endings, and determinism are decided in
// exactly one place.

// Table is a rendered experiment output: a header plus data rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// WriteTable writes the table as CSV. Deterministic: same table -> same
// bytes, regardless of how many workers produced the rows.
func WriteTable(w io.Writer, t Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SeriesTable renders throughput series (Figures 6/7 and ablations) as a
// tidy table: time, system, outstanding, succeeded_per_min, cum_rejects.
// Replica-merged series emit cross-replica means.
func SeriesTable(series []*Series) Table {
	t := Table{Header: []string{"time_s", "system", "outstanding", "succeeded_per_min", "cum_rejects"}}
	for _, s := range series {
		reps := float64(s.Reps())
		for i := range s.Outstanding {
			sec := float64(i+1) * simtime.ToSeconds(s.Bucket)
			t.Rows = append(t.Rows, []string{
				strconv.FormatFloat(sec, 'f', 1, 64),
				s.DisplayName(),
				strconv.FormatFloat(s.Outstanding[i]/reps, 'f', 1, 64),
				strconv.FormatFloat(at(s.SucceededPM, i)/reps, 'f', 2, 64),
				strconv.FormatFloat(at(s.CumRejects, i)/reps, 'f', 1, 64),
			})
		}
	}
	return t
}

// Fig5Table renders the four delay panels: frame, panel, delay_ms
// (replica 0's trace — see DelayPanel.Merge).
func Fig5Table(r *Fig5Result) Table {
	t := Table{Header: []string{"frame", "panel", "delay_ms"}}
	for _, p := range r.Panels {
		for i, d := range p.Delays {
			t.Rows = append(t.Rows, []string{
				strconv.Itoa(i),
				p.Label,
				strconv.FormatFloat(d, 'f', 3, 64),
			})
		}
	}
	return t
}

// ChaosTable renders the recovery events, one row per concluded recovery
// (replica 0's event log — see ChaosResult.Merge).
func ChaosTable(r *ChaosResult) Table {
	t := Table{Header: []string{"time_s", "video", "from_site", "to_site", "latency_s", "frames_lost", "attempts", "outcome"}}
	for _, ev := range r.Events {
		t.Rows = append(t.Rows, []string{
			strconv.FormatFloat(simtime.ToSeconds(ev.At), 'f', 3, 64),
			strconv.FormatUint(uint64(ev.Video), 10),
			ev.FromSite,
			ev.ToSite,
			strconv.FormatFloat(simtime.ToSeconds(ev.Latency), 'f', 3, 64),
			strconv.FormatFloat(ev.Frames, 'f', 1, 64),
			strconv.Itoa(ev.Attempts),
			outcomeOf(ev),
		})
	}
	return t
}

// SaveCSV writes a table as CSV into dir under name, creating dir if
// needed, and returns the file's path.
func SaveCSV(dir, name string, t Table) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := WriteTable(f, t); err != nil {
		f.Close()
		return "", fmt.Errorf("experiments: write %s: %w", path, err)
	}
	return path, f.Close()
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}
