package experiments

import (
	"bytes"
	"testing"

	"quasaq/internal/faults"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// detOverloadCfg shrinks the ramp so the determinism matrix stays fast while
// still crossing capacity and firing every protection.
func detOverloadCfg() OverloadConfig {
	cfg := DefaultOverloadConfig()
	cfg.Phases = []workload.Phase{
		{Rate: 1, Duration: simtime.Seconds(20)},
		{Rate: 10, Duration: simtime.Seconds(40)},
		{Rate: 1, Duration: simtime.Seconds(20)},
	}
	cfg.Schedule = faults.Schedule{
		{At: simtime.Seconds(22), Kind: faults.LinkCongest, Target: "srv-a", Factor: 0.45},
		{At: simtime.Seconds(30), Kind: faults.LinkPartition, Target: "srv-c"},
		{At: simtime.Seconds(45), Kind: faults.LinkRestore, Target: "srv-c"},
		{At: simtime.Seconds(60), Kind: faults.LinkRestore, Target: "srv-a"},
	}
	return cfg
}

func TestOverloadCSVDeterministic(t *testing.T) {
	assertDeterministic(t, "overload", func(t *testing.T, workers int) []byte {
		points, err := RunOverload(detOverloadCfg(), runner.Options{Workers: workers, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, OverloadTable(points)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}

// The headline robustness claims: the ladder rescues a meaningful share of
// violating sessions short of abandonment, and the breaker+queue pair cuts
// the admission tail when a site goes dark under load.
func TestOverloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full overload ramp in -short mode")
	}
	cfg := DefaultOverloadConfig()
	points, err := RunOverload(cfg, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := overloadVariant(points, "baseline")
	guard := overloadVariant(points, "guarded")
	if base == nil || guard == nil {
		t.Fatalf("missing variant in %v", points)
	}
	if base.Guardian.Violations != 0 || base.BreakerOpens != 0 || base.Expired != 0 {
		t.Fatalf("baseline ran with protections on: %+v", base)
	}
	if guard.Guardian.ViolatedSessions == 0 {
		t.Fatal("guarded run saw no violations — the ramp no longer stresses QoS")
	}
	if rate := guard.SavedRate(); rate < 0.30 {
		t.Errorf("ladder saved %.0f%% of violated sessions, want >= 30%%", 100*rate)
	}
	if guard.Guardian.Saved() != guard.Guardian.SavedStepDown+guard.Guardian.SavedRenegotiate+guard.Guardian.SavedMigrate {
		t.Errorf("saved total inconsistent: %+v", guard.Guardian)
	}
	bp99, gp99 := base.Latency.Percentile(99), guard.Latency.Percentile(99)
	if gp99 >= bp99 {
		t.Errorf("guarded admission p99 %.1f ms not below baseline %.1f ms", gp99, bp99)
	}
	if guard.BreakerOpens == 0 || guard.BreakerOpenSeconds <= 0 {
		t.Errorf("breaker never opened during the partition: %+v", guard)
	}
	if guard.QoSAbandoned != int(guard.Guardian.Abandons) {
		t.Errorf("%d abandoned deliveries but %d guardian abandons — an abandonment lost its ErrQoSAbandoned cause",
			guard.QoSAbandoned, guard.Guardian.Abandons)
	}
}
