package guardian

import (
	"errors"
	"testing"

	"quasaq/internal/core"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
	"quasaq/internal/vdbms"
)

// guardedWorld builds a testbed manager with a guardian and admits one
// delivery per requirement, returning the guardian and the deliveries.
func guardedWorld(t *testing.T, reqs ...qos.Requirement) (*Guardian, []*core.Delivery) {
	t.Helper()
	sim := simtime.NewSimulator()
	c := core.TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(c, core.LRB{})
	g, err := New(mgr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ds []*core.Delivery
	for i, req := range reqs {
		d, err := mgr.Service("srv-a", media.VideoID(i+1), req, core.ServiceOptions{})
		if err != nil {
			t.Fatalf("admit req %d (%s): %v", i, req, err)
		}
		ds = append(ds, d)
	}
	return g, ds
}

func baseRequirement() qos.Requirement {
	return qos.Requirement{
		MinResolution: qos.ResVCD,
		MaxResolution: qos.ResCIF,
		MinColorDepth: 16,
		MinFrameRate:  20,
	}
}

// win builds an ObservedQoS snapshot encoding one window's worth of signal
// against a zero baseline: loss fraction over `offered` frames, a mean
// inter-frame delay and jitter over `delaySamples`, and a byte count.
func win(offered int, loss, ideal, meanDelay, jitter float64, delaySamples int, bytes int64) transport.ObservedQoS {
	shed := int(loss * float64(offered))
	return transport.ObservedQoS{
		Frames:           offered - shed,
		FramesShed:       shed,
		Delays:           delaySamples,
		DelaySumMillis:   meanDelay * float64(delaySamples),
		JitterSumMillis:  jitter * float64(delaySamples),
		IdealDelayMillis: ideal,
		Bytes:            bytes,
	}
}

// TestJudgeClauseMirrorsConfig is the golden equivalence pin: a clause whose
// thresholds mirror the guardian's relative limits must reproduce their
// verdict on every window shape — same breach/no-breach, same metric.
func TestJudgeClauseMirrorsConfig(t *testing.T) {
	const ideal = 33.0
	mirror := baseRequirement().WithNet(
		qos.Threshold{Metric: qos.NetLoss, Dir: qos.AtMost, Bound: MaxLoss},
		qos.Threshold{Metric: qos.NetDelay, Dir: qos.AtMost, Bound: DelayFactor * ideal},
		qos.Threshold{Metric: qos.NetJitter, Dir: qos.AtMost, Bound: JitterFactor * ideal},
	)
	g, ds := guardedWorld(t, baseRequirement(), mirror)
	plain, claused := ds[0], ds[1]

	var zero transport.ObservedQoS
	var windows []transport.ObservedQoS
	for _, loss := range []float64{0, 0.04, 0.06, 0.2, 0.9} {
		for _, mean := range []float64{25, 40, 45, 80} {
			for _, jit := range []float64{5, 30, 40} {
				windows = append(windows, win(100, loss, ideal, mean, jit, 20, 1<<20))
			}
		}
	}
	// Gated shapes: thin window, too few delay samples.
	windows = append(windows,
		win(3, 0.5, ideal, 200, 200, 20, 0),
		win(100, 0, ideal, 500, 500, 3, 0),
	)
	for i, w := range windows {
		a := g.judge(plain, w, zero)
		b := g.judge(claused, w, zero)
		if (a == nil) != (b == nil) {
			t.Fatalf("window %d: config verdict %v, clause verdict %v", i, a, b)
		}
		if a != nil && a.Metric != b.Metric {
			t.Fatalf("window %d: config metric %s, clause metric %s", i, a.Metric, b.Metric)
		}
		if a != nil && a.Threshold != b.Threshold {
			t.Fatalf("window %d: config limit %g, clause limit %g", i, a.Threshold, b.Threshold)
		}
	}
	// One place the mirror intentionally diverges: with no ideal delay the
	// config has no delay limit at all, while a clause bound is absolute.
	noIdeal := win(100, 0, 0, 500, 500, 20, 0)
	if v := g.judge(plain, noIdeal, zero); v != nil {
		t.Fatalf("config path judged delay without an ideal: %v", v)
	}
	if v := g.judge(claused, noIdeal, zero); v == nil || v.Metric != MetricDelay {
		t.Fatalf("absolute clause bound needs no ideal, got %v", v)
	}
}

// A clause term overrides the relative limit for that metric only; the
// other metrics keep the relative fallback.
func TestJudgeClauseOverridesPerMetric(t *testing.T) {
	loose := baseRequirement().WithNet(
		qos.Threshold{Metric: qos.NetLoss, Dir: qos.AtMost, Bound: 0.2},
	)
	g, ds := guardedWorld(t, loose)
	d := ds[0]
	var zero transport.ObservedQoS

	if v := g.judge(d, win(100, 0.1, 33, 33, 5, 20, 1<<20), zero); v != nil {
		t.Fatalf("loss 0.1 under clause cap 0.2 violated: %v", v)
	}
	v := g.judge(d, win(100, 0.25, 33, 33, 5, 20, 1<<20), zero)
	if v == nil || v.Metric != MetricLoss || v.Threshold != 0.2 {
		t.Fatalf("loss 0.25 over clause cap 0.2: got %v", v)
	}
	// Delay has no clause term, so DelayFactor still governs.
	v = g.judge(d, win(100, 0, 33, 60, 5, 20, 1<<20), zero)
	if v == nil || v.Metric != MetricDelay {
		t.Fatalf("config delay fallback gone: got %v", v)
	}
}

// Throughput is clause-only: no relative limit bounds it, a clause floor
// does, and loss still outranks it in precedence.
func TestJudgeThroughputFloor(t *testing.T) {
	floor := baseRequirement().WithNet(
		qos.Threshold{Metric: qos.NetThroughput, Dir: qos.AtLeast, Bound: 50_000},
	)
	g, ds := guardedWorld(t, floor, baseRequirement())
	claused, plain := ds[0], ds[1]
	var zero transport.ObservedQoS

	starved := win(100, 0, 33, 33, 5, 20, 20_000) // 10 KB/s over the 2 s window
	v := g.judge(claused, starved, zero)
	if v == nil || v.Metric != MetricThroughput || v.Threshold != 50_000 {
		t.Fatalf("starved window under 50 KB/s floor: got %v", v)
	}
	if v.Observed != 10_000 {
		t.Fatalf("observed throughput = %g, want 10000", v.Observed)
	}
	if v := g.judge(plain, starved, zero); v != nil {
		t.Fatalf("clause-free session grew a throughput floor: %v", v)
	}
	fed := win(100, 0, 33, 33, 5, 20, 200_000) // 100 KB/s
	if v := g.judge(claused, fed, zero); v != nil {
		t.Fatalf("fed window violated: %v", v)
	}
	// Precedence: a window breaching loss AND throughput blames loss.
	both := win(100, 0.5, 33, 33, 5, 20, 20_000)
	if v := g.judge(claused, both, zero); v == nil || v.Metric != MetricLoss {
		t.Fatalf("loss should outrank throughput, got %v", v)
	}
}

// Clause delay/jitter terms still need enough delay samples to form a mean.
func TestJudgeClauseDelaySampleGate(t *testing.T) {
	req := baseRequirement().WithNet(
		qos.Threshold{Metric: qos.NetDelay, Dir: qos.AtMost, Bound: 50},
	)
	g, ds := guardedWorld(t, req)
	var zero transport.ObservedQoS
	if v := g.judge(ds[0], win(100, 0, 33, 500, 0, 3, 1<<20), zero); v != nil {
		t.Fatalf("3 delay samples judged a clause delay bound: %v", v)
	}
	if v := g.judge(ds[0], win(100, 0, 33, 500, 0, 6, 1<<20), zero); v == nil || v.Metric != MetricDelay {
		t.Fatalf("6 delay samples missed the breach: %v", v)
	}
}

func TestQoERunAccumulation(t *testing.T) {
	var r qoeRun
	v := func(m Metric, obs, lim float64) *Violation {
		return &Violation{Metric: m, Observed: obs, Threshold: lim}
	}
	r.observe(v(MetricDelay, 50, 40))
	r.observe(v(MetricDelay, 70, 40))
	r.observe(v(MetricDelay, 60, 40))
	if r.n != 3 || r.min != 50 || r.max != 70 || r.sum != 180 {
		t.Fatalf("run = %+v", r)
	}
	if r.peak {
		t.Fatal("peak set below 2x threshold")
	}
	r.observe(v(MetricDelay, 85, 40)) // >= 2x the 40 ms cap
	if !r.peak {
		t.Fatal("peak not set at 2x threshold")
	}
	// A metric switch restarts the run.
	r.observe(v(MetricLoss, 0.5, 0.05))
	if r.metric != MetricLoss || r.n != 1 || r.min != 0.5 || r.max != 0.5 {
		t.Fatalf("run after metric switch = %+v", r)
	}
	if !r.peak {
		t.Fatal("0.5 loss against a 0.05 cap is peak severity")
	}
	// Throughput peaks downward: half the floor or worse.
	var tp qoeRun
	tp.observe(v(MetricThroughput, 30_000, 50_000))
	if tp.peak {
		t.Fatal("60%% of the floor marked peak")
	}
	tp.observe(v(MetricThroughput, 20_000, 50_000))
	if !tp.peak {
		t.Fatal("40%% of the floor not marked peak")
	}
}

type fakeQoELog struct {
	recs []vdbms.QoERecord
	err  error
}

func (f *fakeQoELog) AppendQoE(r vdbms.QoERecord) error {
	if f.err != nil {
		return f.err
	}
	f.recs = append(f.recs, r)
	return nil
}

func TestRecordQoEOrdinalsAndStats(t *testing.T) {
	g, ds := guardedWorld(t, baseRequirement(), baseRequirement())
	log := &fakeQoELog{}
	g.qoe = log
	m0, m1 := g.monitors[ds[0]], g.monitors[ds[1]]
	if m0 == nil || m1 == nil {
		t.Fatal("admission observer did not create monitors")
	}
	if m0.seq == m1.seq {
		t.Fatalf("both monitors share session ordinal %d", m0.seq)
	}
	run := qoeRun{metric: MetricLoss, n: 4, min: 0.1, max: 0.3, sum: 0.8, peak: true}
	g.recordQoE(m0, "violation", run)
	g.recordQoE(m0, "recovered", run)
	g.recordQoE(m1, "violation", run)
	if len(log.recs) != 3 {
		t.Fatalf("appended %d records, want 3", len(log.recs))
	}
	a, b, c := log.recs[0], log.recs[1], log.recs[2]
	if a.Session != m0.seq || b.Session != m0.seq || c.Session != m1.seq {
		t.Fatalf("session ordinals = %d,%d,%d", a.Session, b.Session, c.Session)
	}
	if a.Counter != 0 || b.Counter != 1 || c.Counter != 0 {
		t.Fatalf("counters = %d,%d,%d", a.Counter, b.Counter, c.Counter)
	}
	if a.Kind != "violation" || b.Kind != "recovered" {
		t.Fatalf("kinds = %q,%q", a.Kind, b.Kind)
	}
	if a.Metric != "loss" || a.Min != 0.1 || a.Max != 0.3 || a.Avg != 0.2 || !a.Peak {
		t.Fatalf("record = %+v", a)
	}
	if a.Video == "" || a.Site == "" {
		t.Fatalf("record missing provenance: %+v", a)
	}
	if got := g.Stats().QoERecords; got != 3 {
		t.Fatalf("Stats().QoERecords = %d, want 3", got)
	}

	// Append errors are swallowed (persistence must never kill the
	// guardian) and not counted as records.
	log.err = errors.New("volume full")
	g.recordQoE(m0, "violation", run)
	if got := g.Stats().QoERecords; got != 3 {
		t.Fatalf("failed append counted: QoERecords = %d", got)
	}
	if m0.events != 3 {
		t.Fatalf("m0 ordinal advanced to %d", m0.events)
	}
}

// New wires the manager's own vdbms engine as the QoE sink, closing the
// loop the issue asks for: violations land in the database they came from.
func TestNewAutoWiresEngineSink(t *testing.T) {
	g, ds := guardedWorld(t, baseRequirement())
	eng, ok := g.qoe.(*vdbms.Engine)
	if !ok || eng == nil {
		t.Fatalf("guardian QoE sink = %T, want *vdbms.Engine", g.qoe)
	}
	mon := g.monitors[ds[0]]
	g.recordQoE(mon, "violation", qoeRun{metric: MetricDelay, n: 1, min: 50, max: 50, sum: 50})
	if eng.QoECount() != 1 {
		t.Fatalf("engine QoE count = %d", eng.QoECount())
	}
	rows, _, err := eng.QoESQL("SELECT * FROM qoe WHERE metric = 'delay'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Kind != "violation" {
		t.Fatalf("query through engine = %+v", rows)
	}
}

// cheaperRequirement must carry the net clause through renegotiation: the
// clause is the contract, not a quality knob.
func TestCheaperRequirementKeepsNetClause(t *testing.T) {
	req := baseRequirement().WithNet(
		qos.Threshold{Metric: qos.NetLoss, Dir: qos.AtMost, Bound: 0.1},
	)
	_, ds := guardedWorld(t, req)
	cheaper, ok := cheaperRequirement(ds[0])
	if !ok {
		t.Fatal("no cheaper tier below the admitted plan")
	}
	if len(cheaper.Net) != 1 || cheaper.Net[0].Metric != qos.NetLoss || cheaper.Net[0].Bound != 0.1 {
		t.Fatalf("net clause dropped in renegotiation: %+v", cheaper.Net)
	}
}
