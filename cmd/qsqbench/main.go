// Command qsqbench regenerates the paper's tables and figures from the
// simulated testbed.
//
// Usage:
//
//	qsqbench -exp fig5       # Figure 5: inter-frame delay panels
//	qsqbench -exp table2     # Table 2: delay statistics
//	qsqbench -exp fig6       # Figure 6: three-system throughput
//	qsqbench -exp fig7       # Figure 7: LRB vs random cost model
//	qsqbench -exp throughput # full system sweep (all six systems)
//	qsqbench -exp ablation   # cost-model and replication ablations
//	qsqbench -exp overhead   # §5.2 overhead analysis
//	qsqbench -exp chaos      # fault injection + mid-stream failover
//	qsqbench -exp admission  # admission latency vs load over the control plane
//	qsqbench -exp overload   # load ramp past capacity: guardian + breaker vs baseline
//	qsqbench -exp transcode  # farm worker-class mixes: dollars vs p99 startup delay
//	qsqbench -exp sla        # clause-strictness tiers: violation rates + QoE percentiles from the qoe table
//	qsqbench -exp edge       # edge proxy-cache tier vs origin-only: startup tails + origin offload
//	qsqbench -exp all
//
// Every experiment is a grid of hermetic (point × replica) simulation
// cells, executed by internal/runner on a bounded worker pool: -parallel
// caps the workers (default GOMAXPROCS), -replicas repeats every point
// under independently derived seeds (replica 0 runs -seed itself), and the
// output is byte-identical for any -parallel value — only the wall-clock
// changes. `-replicas 8 -parallel 8` is how confidence intervals over many
// seeds become cheap enough to be the default.
//
// The admission experiment runs the distributed control plane with real
// message latencies: -ctrl-latency-ms, -ctrl-timeout-ms, -ctrl-retries and
// -ctrl-loss shape the PREPARE/COMMIT/ABORT traffic (defaults match the
// paper's LAN testbed), and each -load level is one hermetic sweep point.
//
// The chaos experiment accepts -faults pointing at a fault-schedule file
// (see internal/faults for the text format); without it the canonical
// schedule runs. With -trace out.json it also records per-session pipeline
// spans and writes them as Chrome trace_event JSON (open in chrome://tracing
// or ui.perfetto.dev); -metrics out.json dumps the full metrics registry.
//
// Horizons are configurable; the defaults match the paper (1000 s for
// Figure 6, 7000 s for Figure 7).
//
// -cpuprofile and -memprofile write pprof profiles of the whole run (the
// memory profile is the allocation profile, taken after a final GC); read
// them with `go tool pprof -top FILE`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"quasaq/internal/broker"
	"quasaq/internal/experiments"
	"quasaq/internal/faults"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

// options carries every CLI knob through the experiment dispatch.
type options struct {
	exp        string
	seed       int64
	sweep      runner.Options
	frames     int
	contention int
	fig6Secs   float64
	fig7Secs   float64
	chaosSecs  float64
	queries    int
	faultsFile string
	csvDir     string
	traceFile  string
	metricsOut string

	admSecs     float64
	ctrlLatMs   float64
	ctrlTmoMs   float64
	ctrlRetries int
	ctrlLoss    float64

	overloadScale float64

	cpuProfile string
	memProfile string
}

// experimentNames lists every -exp value, in the order the help text lists them.
var experimentNames = []string{
	"fig5", "table2", "fig6", "fig7", "throughput", "ablation", "dynamic", "overhead",
	"chaos", "admission", "overload", "transcode", "sla", "edge", "all",
}

func main() {
	var o options
	flag.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(experimentNames, "|"))
	flag.Int64Var(&o.seed, "seed", 11, "workload seed (replica 0 runs this seed itself)")
	flag.IntVar(&o.sweep.Workers, "parallel", 0, "worker pool size for sweep cells (0 = GOMAXPROCS)")
	flag.IntVar(&o.sweep.Replicas, "replicas", 1, "independently seeded repetitions of every sweep point")
	fig5 := experiments.DefaultFig5Config()
	flag.IntVar(&o.frames, "frames", fig5.Frames, "fig5: trace length in frames")
	flag.IntVar(&o.contention, "contention", fig5.Contention, "fig5: competing streams at high contention")
	flag.Float64Var(&o.fig6Secs, "fig6-horizon", 1000, "fig6/throughput: simulated seconds")
	flag.Float64Var(&o.fig7Secs, "fig7-horizon", 7000, "fig7: simulated seconds")
	flag.IntVar(&o.queries, "overhead-queries", 500, "overhead: planning calls to time")
	flag.Float64Var(&o.chaosSecs, "chaos-horizon", 600, "chaos: simulated seconds")
	flag.StringVar(&o.faultsFile, "faults", "", "chaos: fault-schedule file (default: canonical schedule)")
	flag.StringVar(&o.csvDir, "csv", "", "also write series CSVs into this directory")
	flag.StringVar(&o.traceFile, "trace", "", "chaos: write Chrome trace_event JSON of every session here")
	flag.StringVar(&o.metricsOut, "metrics", "", "chaos: write the metrics registry as JSON here")
	flag.Float64Var(&o.admSecs, "admission-horizon", 200, "admission: query arrival window in simulated seconds")
	flag.Float64Var(&o.ctrlLatMs, "ctrl-latency-ms", 5, "admission: one-way control-message latency (0 = synchronous)")
	flag.Float64Var(&o.ctrlTmoMs, "ctrl-timeout-ms", 40, "admission: per-attempt control RPC timeout")
	flag.IntVar(&o.ctrlRetries, "ctrl-retries", 2, "admission: control RPC retries after the first attempt")
	flag.Float64Var(&o.ctrlLoss, "ctrl-loss", 0, "admission: control-message loss probability in [0,1)")
	flag.Float64Var(&o.overloadScale, "overload-scale", 1, "overload: shrink (<1) or stretch (>1) the ramp and fault times")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run here")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of the run here")
	flag.Parse()
	if err := profiled(o.cpuProfile, o.memProfile, func() error { return run(o) }); err != nil {
		fmt.Fprintln(os.Stderr, "qsqbench:", err)
		os.Exit(1)
	}
}

// profiled runs fn under the -cpuprofile and -memprofile flags; with both
// empty it is fn alone.
func profiled(cpuPath, memPath string, fn func() error) (err error) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC() // settle the statistics the profile reports
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveCSV writes one table into the -csv directory when it is set.
func saveCSV(csvDir, name string, t experiments.Table) error {
	if csvDir == "" {
		return nil
	}
	path, err := experiments.SaveCSV(csvDir, name, t)
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// throughputCfg builds the fig6-style config shared by several sweeps.
func (o options) throughputCfg() experiments.ThroughputConfig {
	cfg := experiments.DefaultFig6Config()
	cfg.Seed = o.seed
	cfg.Horizon = simtime.Seconds(o.fig6Secs)
	return cfg
}

func run(o options) error {
	if !slices.Contains(experimentNames, o.exp) {
		return fmt.Errorf("unknown experiment %q", o.exp)
	}
	all := o.exp == "all"
	if all || o.exp == "fig5" || o.exp == "table2" {
		cfg := experiments.Fig5Config{Seed: o.seed, Frames: o.frames, Contention: o.contention}
		res, err := experiments.RunFig5(cfg, o.sweep)
		if err != nil {
			return err
		}
		if all || o.exp == "fig5" {
			fmt.Println(experiments.FormatFig5(res))
		}
		if all || o.exp == "table2" {
			fmt.Println(experiments.FormatTable2(experiments.Table2(res)))
		}
		if err := saveCSV(o.csvDir, "fig5.csv", experiments.Fig5Table(res)); err != nil {
			return err
		}
	}
	if all || o.exp == "fig6" {
		series, err := experiments.RunSweep(experiments.NewFig6Scenario(o.throughputCfg()), o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatThroughput(
			fmt.Sprintf("Figure 6: throughput of different video database systems (%.0f s)", o.fig6Secs), series))
		if err := saveCSV(o.csvDir, "fig6.csv", experiments.SeriesTable(series)); err != nil {
			return err
		}
	}
	if all || o.exp == "fig7" {
		cfg := experiments.DefaultFig7Config()
		cfg.Seed = o.seed
		cfg.Horizon = simtime.Seconds(o.fig7Secs)
		series, err := experiments.RunSweep(experiments.NewFig7Scenario(cfg), o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatThroughput(
			fmt.Sprintf("Figure 7: QuaSAQ with different cost models (%.0f s)", o.fig7Secs), series))
		if err := saveCSV(o.csvDir, "fig7.csv", experiments.SeriesTable(series)); err != nil {
			return err
		}
	}
	if o.exp == "throughput" { // not part of -exp all: it subsumes fig6/ablation
		series, err := experiments.RunSweep(experiments.NewThroughputScenario(o.throughputCfg()), o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatThroughput(
			fmt.Sprintf("Throughput: full system sweep (%.0f s)", o.fig6Secs), series))
		if err := saveCSV(o.csvDir, "throughput.csv", experiments.SeriesTable(series)); err != nil {
			return err
		}
	}
	if all || o.exp == "ablation" {
		series, err := experiments.RunSweep(experiments.NewAblationScenario(o.throughputCfg()), o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatThroughput("Ablations: cost models + single-copy replication", series))
		fmt.Printf("Single-copy replication ablation: steady outstanding %.1f (vs %.1f with the full ladder)\n",
			series[len(series)-1].SteadyOutstanding(), series[0].SteadyOutstanding())
		if err := saveCSV(o.csvDir, "ablation.csv", experiments.SeriesTable(series)); err != nil {
			return err
		}
	}
	if all || o.exp == "dynamic" {
		res, err := experiments.RunDynamicReplication(o.throughputCfg(), o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatDynamic(res))
	}
	if all || o.exp == "admission" {
		cfg := experiments.DefaultAdmissionConfig()
		cfg.Seed = o.seed
		cfg.Horizon = simtime.Seconds(o.admSecs)
		cfg.Ctrl = broker.Config{
			Latency: simtime.Seconds(o.ctrlLatMs / 1000),
			Timeout: simtime.Seconds(o.ctrlTmoMs / 1000),
			Retries: o.ctrlRetries,
			Loss:    o.ctrlLoss,
		}
		points, err := experiments.RunAdmission(cfg, o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAdmission(cfg, points))
		if err := saveCSV(o.csvDir, "admission.csv", experiments.AdmissionTable(points)); err != nil {
			return err
		}
	}
	if o.exp == "overload" { // not part of -exp all: the drain runs long past the ramp
		cfg := experiments.DefaultOverloadConfig()
		cfg.Seed = o.seed
		if o.overloadScale != 1 {
			if o.overloadScale <= 0 {
				return fmt.Errorf("non-positive -overload-scale %v", o.overloadScale)
			}
			for i := range cfg.Phases {
				cfg.Phases[i].Duration = simtime.Time(float64(cfg.Phases[i].Duration) * o.overloadScale)
			}
			for i := range cfg.Schedule {
				cfg.Schedule[i].At = simtime.Time(float64(cfg.Schedule[i].At) * o.overloadScale)
			}
		}
		points, err := experiments.RunOverload(cfg, o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatOverload(cfg, points))
		if err := saveCSV(o.csvDir, "overload.csv", experiments.OverloadTable(points)); err != nil {
			return err
		}
	}
	if o.exp == "sla" { // not part of -exp all: its drain runs long past the ramp, like overload
		cfg := experiments.DefaultSLAConfig()
		cfg.Seed = o.seed
		points, err := experiments.RunSLA(cfg, o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSLA(cfg, points))
		if err := saveCSV(o.csvDir, "sla.csv", experiments.SLATable(points)); err != nil {
			return err
		}
	}
	if o.exp == "edge" { // not part of -exp all: the flash-crowd drain runs long past the ramp
		cfg := experiments.DefaultEdgeExpConfig()
		cfg.Seed = o.seed
		points, err := experiments.RunEdge(cfg, o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatEdge(cfg, points))
		if err := saveCSV(o.csvDir, "edge.csv", experiments.EdgeTable(points)); err != nil {
			return err
		}
	}
	if o.exp == "transcode" { // not part of -exp all: its single-copy corpus skews the other figures' protocol
		cfg := experiments.DefaultTranscodeConfig()
		cfg.Seed = o.seed
		points, err := experiments.RunTranscode(cfg, o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTranscode(cfg, points))
		if err := saveCSV(o.csvDir, "transcode.csv", experiments.TranscodeTable(points)); err != nil {
			return err
		}
	}
	if all || o.exp == "overhead" {
		res, err := experiments.RunOverhead(o.seed, o.queries, o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatOverhead(res))
	}
	if all || o.exp == "chaos" {
		cfg := experiments.DefaultChaosConfig()
		cfg.Seed = o.seed
		cfg.Horizon = simtime.Seconds(o.chaosSecs)
		cfg.Trace = o.traceFile != ""
		if o.faultsFile != "" {
			text, err := os.ReadFile(o.faultsFile)
			if err != nil {
				return err
			}
			sched, err := faults.ParseSchedule(string(text))
			if err != nil {
				return err
			}
			cfg.Schedule = sched
		}
		res, err := experiments.RunChaos(cfg, o.sweep)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatChaos(res))
		if o.traceFile != "" {
			if err := writeFile(o.traceFile, res.Trace.WriteJSON); err != nil {
				return err
			}
			fmt.Println("wrote", o.traceFile)
		}
		if o.metricsOut != "" {
			if err := writeFile(o.metricsOut, res.Metrics.WriteJSON); err != nil {
				return err
			}
			fmt.Println("wrote", o.metricsOut)
		}
		if err := saveCSV(o.csvDir, "chaos.csv", experiments.ChaosTable(res)); err != nil {
			return err
		}
	}
	return nil
}

// writeFile streams an exporter into path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
