package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"quasaq/internal/broker"
	"quasaq/internal/core"
	"quasaq/internal/media"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/workload"
)

// Admission-latency-vs-load: with the control plane switched to message
// passing (testbed latencies), every admission pays its two-phase
// reservation round trips, and under load the extra prepares of failed
// plan attempts and rollbacks stretch the tail. This experiment sweeps the
// query arrival rate and reports the admission-decision latency
// distribution per load level — the control-plane cost the paper's
// single-host prototype never had to pay.

// AdmissionConfig parameterizes the sweep.
type AdmissionConfig struct {
	Seed    int64
	Horizon simtime.Time  // query arrival window per load level
	Loads   []float64     // arrival rates, queries per second
	Ctrl    broker.Config // Ctrl.Seed is unused: each cell's loss stream follows its own seed
}

// DefaultAdmissionConfig sweeps 0.5-8 qps for 200 s under the paper's LAN
// control-plane parameters.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{
		Seed:    17,
		Horizon: simtime.Seconds(200),
		Loads:   []float64{0.5, 1, 2, 4, 8},
		Ctrl:    broker.TestbedConfig(),
	}
}

// AdmissionPoint is one load level's outcome: admission counters plus the
// decision-latency sample (milliseconds from query arrival to the
// admit/reject verdict, two-phase reservations included).
type AdmissionPoint struct {
	Load         float64
	Queries      int
	Admitted     int
	Rejected     int
	CtrlTimeouts int // rejections whose cause chain includes ErrControlTimeout
	Latency      *stats.Sample

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int
}

func (p *AdmissionPoint) reps() int {
	if p.Replicas < 1 {
		return 1
	}
	return p.Replicas
}

// Merge folds another replica's point in: counters sum, the latency samples
// pool (percentiles then read the cross-replica distribution).
func (p *AdmissionPoint) Merge(o *AdmissionPoint) {
	p.Queries += o.Queries
	p.Admitted += o.Admitted
	p.Rejected += o.Rejected
	p.CtrlTimeouts += o.CtrlTimeouts
	for _, x := range o.Latency.Values() {
		p.Latency.Add(x)
	}
	p.Replicas = p.reps() + o.reps()
}

// RunAdmission sweeps the load grid: each load level is one point, measured
// in a hermetic world per replica.
func RunAdmission(cfg AdmissionConfig, opts runner.Options) ([]*AdmissionPoint, error) {
	keys := make([]string, len(cfg.Loads))
	for i, load := range cfg.Loads {
		keys[i] = "load-" + strconv.FormatFloat(load, 'g', -1, 64)
	}
	opts.Seed = cfg.Seed
	return runner.Sweep("admission", keys, opts, func(i int, seed int64) (*AdmissionPoint, error) {
		return runAdmissionPoint(cfg, cfg.Loads[i], seed)
	})
}

// runAdmissionPoint measures one load level in a hermetic world.
func runAdmissionPoint(cfg AdmissionConfig, load float64, seed int64) (*AdmissionPoint, error) {
	if load <= 0 {
		return nil, fmt.Errorf("experiments: non-positive load %v", load)
	}
	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(seed))
	if _, err := cluster.LoadCorpus(corpus, replication.DefaultPolicy()); err != nil {
		return nil, err
	}
	ctrl := cfg.Ctrl
	ctrl.Seed = seed
	if err := cluster.ConfigureControl(ctrl); err != nil {
		return nil, err
	}
	mgr := core.NewManager(cluster, core.LRB{})

	out := &AdmissionPoint{Load: load, Latency: &stats.Sample{}}
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / load),
	})
	gen.Drive(sim, cfg.Horizon, func(r workload.Request) {
		out.Queries++
		arrived := sim.Now()
		mgr.ServiceAsync(r.Site, r.Video, r.Req, core.ServiceOptions{}, func(_ *core.Delivery, err error) {
			out.Latency.Add(1000 * simtime.ToSeconds(sim.Now()-arrived))
			if err != nil {
				out.Rejected++
				if errors.Is(err, core.ErrControlTimeout) {
					out.CtrlTimeouts++
				}
				return
			}
			out.Admitted++
		})
	})
	// Run past the horizon so every in-flight two-phase reservation settles;
	// the slack generously covers a full retry budget plus rollback.
	ctrl = ctrl.Normalized()
	slack := 2 * simtime.Time(ctrl.Retries+2) * (ctrl.Timeout + ctrl.PrepareTTL)
	sim.RunUntil(cfg.Horizon + slack + simtime.Seconds(1))
	if got := out.Admitted + out.Rejected; got != out.Queries {
		return nil, fmt.Errorf("experiments: %d of %d admissions never settled", out.Queries-got, out.Queries)
	}
	return out, nil
}

// AdmissionTable renders the sweep as tidy CSV: one row per load level.
// Counters of replica-merged points emit cross-replica means; the latency
// quantiles read the pooled cross-replica sample.
func AdmissionTable(points []*AdmissionPoint) Table {
	t := Table{Header: []string{
		"load_qps", "queries", "admitted", "rejected", "ctrl_timeouts",
		"mean_ms", "p50_ms", "p95_ms", "max_ms",
	}}
	for _, p := range points {
		reps := p.reps()
		sum := p.Latency.Summary()
		t.Rows = append(t.Rows, []string{
			strconv.FormatFloat(p.Load, 'g', -1, 64),
			fmtCount(p.Queries, reps),
			fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps),
			fmtCount(p.CtrlTimeouts, reps),
			strconv.FormatFloat(sum.Mean(), 'f', 3, 64),
			strconv.FormatFloat(p.Latency.Percentile(50), 'f', 3, 64),
			strconv.FormatFloat(p.Latency.Percentile(95), 'f', 3, 64),
			strconv.FormatFloat(sum.Max(), 'f', 3, 64),
		})
	}
	return t
}

// FormatAdmission renders the sweep as a report table.
func FormatAdmission(cfg AdmissionConfig, points []*AdmissionPoint) string {
	var b strings.Builder
	c := cfg.Ctrl.Normalized()
	fmt.Fprintf(&b, "Admission latency vs load  (ctrl: latency %v, timeout %v, %d retries, TTL %v)",
		c.Latency, c.Timeout, c.Retries, c.PrepareTTL)
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%10s %9s %9s %9s %9s %10s %10s %10s %10s\n",
		"load(qps)", "queries", "admitted", "rejected", "ctrl-t/o",
		"mean(ms)", "p50(ms)", "p95(ms)", "max(ms)")
	for _, p := range points {
		reps := p.reps()
		sum := p.Latency.Summary()
		fmt.Fprintf(&b, "%10g %9s %9s %9s %9s %10.3f %10.3f %10.3f %10.3f\n",
			p.Load, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps), fmtCount(p.CtrlTimeouts, reps),
			sum.Mean(), p.Latency.Percentile(50), p.Latency.Percentile(95), sum.Max())
	}
	return b.String()
}
