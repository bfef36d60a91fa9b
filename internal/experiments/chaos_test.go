package experiments

import (
	"bytes"
	"strings"
	"testing"

	"quasaq/internal/faults"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

func shortChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Horizon = simtime.Seconds(200)
	cfg.Schedule = faults.Schedule{
		{At: simtime.Seconds(60), Kind: faults.NodeCrash, Target: "srv-b"},
		{At: simtime.Seconds(120), Kind: faults.NodeRestart, Target: "srv-b"},
		{At: simtime.Seconds(150), Kind: faults.LinkDegrade, Target: "srv-a", Factor: 0.5},
	}
	return cfg
}

func TestChaosCrashTriggersFailovers(t *testing.T) {
	res, err := RunChaos(shortChaosConfig(), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SessionFailures == 0 {
		t.Fatal("the crash killed no sessions")
	}
	if res.Stats.Failovers == 0 && res.Stats.BestEffortFallbacks == 0 {
		t.Fatalf("nothing recovered: %+v", res.Stats)
	}
	if res.MeanFailoverLatencySeconds() <= 0 && res.Stats.Failovers > 0 {
		t.Fatal("failover latency not recorded")
	}
	// Every applied fault shows up in the log.
	applied := 0
	for _, rec := range res.FaultLog {
		if rec.Applied {
			applied++
		}
	}
	if applied != 3 {
		t.Fatalf("applied %d faults, want 3: %+v", applied, res.FaultLog)
	}
	// A successful failover must land on a live alternate site.
	for _, ev := range res.Events {
		if ev.Err == nil && !ev.Degraded && ev.ToSite == ev.FromSite && simtime.ToSeconds(ev.At) < 120 {
			t.Fatalf("failed over onto the crashed site: %+v", ev)
		}
	}
}

func TestChaosDeterministic(t *testing.T) {
	var runs [2]*ChaosResult
	var csvs [2]bytes.Buffer
	for i := range runs {
		res, err := RunChaos(shortChaosConfig(), runner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
		if err := WriteTable(&csvs[i], ChaosTable(res)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(csvs[0].Bytes(), csvs[1].Bytes()) {
		t.Fatal("same seed produced different chaos CSVs")
	}
	if runs[0].Stats != runs[1].Stats {
		t.Fatalf("stats diverge:\n%+v\n%+v", runs[0].Stats, runs[1].Stats)
	}
	if len(csvs[0].String()) == 0 || !strings.HasPrefix(csvs[0].String(), "time_s,") {
		t.Fatalf("csv = %q", csvs[0].String())
	}
}

func TestChaosFormatMentionsMetrics(t *testing.T) {
	res, err := RunChaos(shortChaosConfig(), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatChaos(res)
	for _, want := range []string{"failover latency", "frames lost", "node-crash srv-b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatChaos output missing %q:\n%s", want, out)
		}
	}
}
