// Command bench is the repository's benchmark: five workloads, seven
// end-to-end metrics and a per-layer trace. See README.md in this directory.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run; the last line of stdout is its JSON result
//	bench NAME [-trace FILE]                                 the same, NAME first; FILE receives the Chrome trace
//	bench all [-json FILE]                                   every workload, reps interleaved; FILE receives the results
//	bench -compare A.json B.json                             judge B against A by each metric's bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

var stderr io.Writer = os.Stderr

// resultsFile is what `bench all -json` writes and `bench -compare` reads.
type resultsFile struct {
	Label      string                `json:"label"` // what was measured: a commit hash, usually
	GoVersion  string                `json:"go_version"`
	NProc      int                   `json:"nproc"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Seed       int64                 `json:"seed"`
	Seconds    int                   `json:"seconds"`
	Reps       int                   `json:"reps"`
	Workloads  map[string]*runResult `json:"workloads"`
}

func newResultsFile(label string, seed int64, seconds, reps int, runs []*runResult) *resultsFile {
	f := &resultsFile{Label: label, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Reps: reps,
		Workloads: make(map[string]*runResult, len(runs))}
	for _, r := range runs {
		f.Workloads[r.Workload] = r
	}
	return f
}

// contractLine is the one-line result the benchmark driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func contractLine(r *runResult, traced bool) string {
	metrics := r.Metrics
	if traced {
		metrics = r.Layers
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Counts.Failed == 0, r.Counts.Attempted, r.Counts.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&name, "workload", name, "workload to run, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed; 29 is held out for claims")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds per run the reps are sized for")
	trace := fs.String("trace", "0", "1 adds a traced rep and reports the per-layer metrics; a file name also writes the Chrome trace there")
	jsonPath := fs.String("json", "", "write the results file -compare reads here")
	label := fs.String("label", "", "recorded in the results file: the commit measured, usually")
	compare := fs.Bool("compare", false, "compare two results files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || name == "" {
		return fmt.Errorf("usage: bench <workload|all> [-seed N] [-seconds S] [-trace 0|1|FILE] [-json FILE]")
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", *seconds)
	}
	traced := *trace != "0"
	reps := defaultReps
	if traced {
		reps = tracedReps
	}

	ws := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	} else if traced && *trace != "1" {
		return fmt.Errorf("-trace FILE needs a single workload")
	}
	runs, err := runWorkloads(ws, *seed, *seconds, reps, traced)
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, r := range runs {
		r.print(&b)
	}
	fmt.Fprint(stdout, b.String())
	if traced && *trace != "1" {
		if err := runs[0].traced.handles.tracer.writeChrome(*trace); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(newResultsFile(*label, *seed, *seconds, reps, runs), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	failed := 0
	for _, r := range runs {
		failed += r.Counts.Failed
	}
	if name != "all" {
		fmt.Fprintln(stdout, contractLine(runs[0], traced))
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultsFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one row per (workload, end-to-end metric): the two
// values, the change in the metric's worse direction, its bound and a
// verdict. A change inside the bound is "unchanged" only when both files'
// own rep spread is inside the bound too; otherwise it is "unresolved". The
// two files must hold the same workloads measured the same way: a dropped
// workload or a run of another seed or size is an error, not a pass.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Reps != b.Reps {
		return fmt.Errorf("not like for like: %s has seed %d, %d s, %d reps; %s has seed %d, %d s, %d reps",
			pathA, a.Seed, a.Seconds, a.Reps, pathB, b.Seed, b.Seconds, b.Reps)
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if b.Workloads[n] == nil {
			return fmt.Errorf("workload %s is in %s but not in %s", n, pathA, pathB)
		}
		names = append(names, n)
	}
	for n := range b.Workloads {
		if a.Workloads[n] == nil {
			return fmt.Errorf("workload %s is in %s but not in %s", n, pathB, pathA)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	regressed := 0
	for _, n := range names {
		ra, rb := a.Workloads[n], b.Workloads[n]
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
			case max(ra.RepSpread[m.Name], rb.RepSpread[m.Name]) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-14s %-22s %14.4f %14.4f %+8.2f%% %6.1f%%  %s\n", n, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed past their bound", regressed)
	}
	return nil
}
