package experiments

import (
	"strings"
	"testing"

	"quasaq/internal/media"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
)

// shortFig5 keeps unit-test runtime low; benchmarks run the full config.
func shortFig5(t *testing.T) *Fig5Result {
	t.Helper()
	cfg := DefaultFig5Config()
	cfg.Frames = 400
	res, err := RunFig5(cfg, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig5Shape(t *testing.T) {
	res := shortFig5(t)
	vLow, qLow := res.Panels[0], res.Panels[1]
	vHigh, qHigh := res.Panels[2], res.Panels[3]

	// Low contention: both systems process timely — means near ideal.
	for _, p := range []DelayPanel{vLow, qLow} {
		if m := p.InterFrame.Mean(); m < res.IdealMillis*0.9 || m > res.IdealMillis*1.15 {
			t.Fatalf("%s: mean %.2f ms, ideal %.2f", p.Label, m, res.IdealMillis)
		}
	}
	// High contention: VDBMS falls apart — its variance must be far above
	// QuaSAQ's (the paper: "one magnitude higher" axis scale).
	if vHigh.InterFrame.StdDev() < 3*qHigh.InterFrame.StdDev() {
		t.Fatalf("VDBMS high SD %.2f not >> QuaSAQ high SD %.2f",
			vHigh.InterFrame.StdDev(), qHigh.InterFrame.StdDev())
	}
	// VDBMS high contention mean drifts above ideal; QuaSAQ stays put.
	if vHigh.InterFrame.Mean() <= qHigh.InterFrame.Mean() {
		t.Fatalf("VDBMS high mean %.2f should exceed QuaSAQ high mean %.2f",
			vHigh.InterFrame.Mean(), qHigh.InterFrame.Mean())
	}
	if m := qHigh.InterFrame.Mean(); m < res.IdealMillis*0.9 || m > res.IdealMillis*1.15 {
		t.Fatalf("QuaSAQ high-contention mean %.2f strayed from ideal %.2f", m, res.IdealMillis)
	}
	// QuaSAQ's delays barely change across contention (Table 2: 42.16 vs
	// 42.25 ms).
	drift := qHigh.InterFrame.Mean() - qLow.InterFrame.Mean()
	if drift < 0 {
		drift = -drift
	}
	if drift > 3 {
		t.Fatalf("QuaSAQ mean drifted %.2f ms across contention", drift)
	}
}

func TestFig5GOPSmoothing(t *testing.T) {
	res := shortFig5(t)
	for _, p := range []DelayPanel{res.Panels[1], res.Panels[3]} { // QuaSAQ panels
		if p.InterGOP.StdDev() >= p.InterFrame.StdDev() {
			t.Fatalf("%s: GOP aggregation did not smooth variance (%.2f vs %.2f)",
				p.Label, p.InterGOP.StdDev(), p.InterFrame.StdDev())
		}
		if m := p.InterGOP.Mean(); m < 600 || m > 660 {
			t.Fatalf("%s: inter-GOP mean %.2f, want ~625.8", p.Label, m)
		}
	}
	// The VDBMS low-contention run shows more GOP-level noise than
	// QuaSAQ's (Table 2: 64.5 vs 10.1).
	if res.Panels[0].InterGOP.StdDev() <= res.Panels[1].InterGOP.StdDev() {
		t.Fatalf("VDBMS low GOP SD %.2f should exceed QuaSAQ low GOP SD %.2f",
			res.Panels[0].InterGOP.StdDev(), res.Panels[1].InterGOP.StdDev())
	}
}

func TestFig5PlayoutContrast(t *testing.T) {
	res := shortFig5(t)
	vHigh, qHigh := res.Panels[2], res.Panels[3]
	// The end-to-end payoff: a client of the unmanaged system rebuffers
	// under high contention; QuaSAQ's client does not.
	if vHigh.Playout.Rebuffers == 0 {
		t.Fatal("VDBMS high-contention playout never stalled")
	}
	if qHigh.Playout.Rebuffers > 1 {
		t.Fatalf("QuaSAQ playout rebuffered %d times", qHigh.Playout.Rebuffers)
	}
}

func TestTable2Format(t *testing.T) {
	res := shortFig5(t)
	rows := Table2(res)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(rows[0].Experiment, "VDBMS, Low") || !strings.Contains(rows[1].Experiment, "High") {
		t.Fatalf("row order wrong: %v / %v", rows[0].Experiment, rows[1].Experiment)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Frame Mean") || !strings.Contains(out, "VDBMS, Low contention") {
		t.Fatalf("format missing pieces:\n%s", out)
	}
	plot := FormatFig5(res)
	if !strings.Contains(plot, "Figure 5") {
		t.Fatal("fig5 format missing header")
	}
}

func shortThroughputConfig() ThroughputConfig {
	return ThroughputConfig{Seed: 11, Horizon: simtime.Seconds(260), Bucket: simtime.Seconds(20)}
}

func TestFig6Shape(t *testing.T) {
	series, err := RunSweep(NewFig6Scenario(shortThroughputConfig()), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vdbms, qosapi, quasaq := series[0], series[1], series[2]

	// Figure 6a: VDBMS keeps by far the most outstanding sessions (it
	// admits everything); QuaSAQ sustains clearly more than VDBMS+QoS API.
	if vdbms.SteadyOutstanding() <= 1.5*quasaq.SteadyOutstanding() {
		t.Fatalf("VDBMS outstanding %.1f not >> QuaSAQ %.1f",
			vdbms.SteadyOutstanding(), quasaq.SteadyOutstanding())
	}
	ratio := quasaq.SteadyOutstanding() / qosapi.SteadyOutstanding()
	if ratio < 1.4 {
		t.Fatalf("QuaSAQ/QoSAPI outstanding ratio = %.2f, paper reports ~1.75", ratio)
	}
	// VDBMS never rejects; the reserved systems must reject under this
	// overload.
	if vdbms.Rejected != 0 {
		t.Fatalf("VDBMS rejected %d queries", vdbms.Rejected)
	}
	if qosapi.Rejected == 0 || quasaq.Rejected == 0 {
		t.Fatal("reserved systems never rejected under overload")
	}
	// Figure 6b: QoS-succeeding completions favor QuaSAQ; VDBMS's
	// unmanaged sessions fail QoS.
	if quasaq.QoSOK <= qosapi.QoSOK {
		t.Fatalf("QuaSAQ QoS-OK %d not above QoSAPI %d", quasaq.QoSOK, qosapi.QoSOK)
	}
	if vdbms.Completed > 0 && float64(vdbms.QoSOK) > 0.3*float64(vdbms.Completed) {
		t.Fatalf("VDBMS QoS-OK %d/%d too healthy for an overloaded unmanaged system",
			vdbms.QoSOK, vdbms.Completed)
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := shortThroughputConfig()
	cfg.Seed = 13
	series, err := RunSweep(NewFig7Scenario(cfg), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	random, lrb := series[0], series[1]
	// Figure 7a: LRB sustains more sessions (paper: 27-89% more).
	if lrb.SteadyOutstanding() <= random.SteadyOutstanding() {
		t.Fatalf("LRB outstanding %.1f not above random %.1f",
			lrb.SteadyOutstanding(), random.SteadyOutstanding())
	}
	// Figure 7b: LRB rejects fewer queries.
	if lrb.Rejected >= random.Rejected {
		t.Fatalf("LRB rejects %d not below random %d", lrb.Rejected, random.Rejected)
	}
	if len(lrb.CumRejects) == 0 || lrb.CumRejects[len(lrb.CumRejects)-1] != float64(lrb.Rejected) {
		t.Fatal("cumulative reject series inconsistent")
	}
}

func TestThroughputSeriesShape(t *testing.T) {
	s, err := RunThroughput(SysQuaSAQ, shortThroughputConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Outstanding) != len(s.SucceededPM) || len(s.Outstanding) != len(s.CumRejects) {
		t.Fatalf("series lengths differ: %d %d %d",
			len(s.Outstanding), len(s.SucceededPM), len(s.CumRejects))
	}
	if s.Queries != s.Admitted+s.Rejected {
		t.Fatalf("query accounting: %d != %d + %d", s.Queries, s.Admitted, s.Rejected)
	}
	out := FormatThroughput("test", []*Series{s})
	if !strings.Contains(out, "VDBMS+QuaSAQ") {
		t.Fatal("format missing system name")
	}
}

func TestSingleCopyAblationHurtsQuaSAQ(t *testing.T) {
	cfg := shortThroughputConfig()
	full, err := RunThroughput(SysQuaSAQ, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SingleCopy = true
	single, err := RunThroughput(SysQuaSAQ, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without the replica ladder QuaSAQ must serve originals (often
	// remotely or transcoded), sustaining fewer sessions: the paper's
	// claim that QoS-specific replication drives the §5.2 gains.
	if single.SteadyOutstanding() >= full.SteadyOutstanding() {
		t.Fatalf("single-copy outstanding %.1f not below full replication %.1f",
			single.SteadyOutstanding(), full.SteadyOutstanding())
	}
}

func TestOverhead(t *testing.T) {
	r, err := RunOverhead(3, 100, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.PlansPerQuery <= 0 {
		t.Fatal("no plans counted")
	}
	// Planning must be cheap: well under a millisecond per query on
	// modern hardware (the paper reported "a few ms" on a 2002 machine).
	if r.PlanMicrosPerQry > 5000 {
		t.Fatalf("planning cost %.0f us per query is too high", r.PlanMicrosPerQry)
	}
	// Scheduler overhead should land in the low single-digit percent
	// (paper: 1.6%).
	if r.SchedulerOverhead <= 0 || r.SchedulerOverhead > 0.08 {
		t.Fatalf("scheduler overhead = %.4f, want ~0.016", r.SchedulerOverhead)
	}
	out := FormatOverhead(r)
	if !strings.Contains(out, "1.6%") {
		t.Fatal("format missing paper reference")
	}
}

func TestStreamCPUShareCalibration(t *testing.T) {
	q := media.LadderQuality(media.LinkLAN, 23.97)
	share := transport.StreamCPUCost(media.NewVariant(q), 23.97)
	if share < 0.01 || share > 0.05 {
		t.Fatalf("full-quality stream CPU share = %.4f, want ~0.023", share)
	}
}
