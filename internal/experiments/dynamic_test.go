package experiments

import (
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

func TestDynamicReplicationConverges(t *testing.T) {
	cfg := ThroughputConfig{Seed: 17, Horizon: simtime.Seconds(400), Bucket: simtime.Seconds(20)}
	r, err := RunDynamicReplication(cfg, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReplicasCreated == 0 {
		t.Fatal("online replicator created nothing")
	}
	// Dynamic must clearly beat static single-copy (replicas arrive over
	// real link transfers, so the margin builds through the run) and stay
	// at or below the offline full ladder.
	if r.DynamicSingle.Admitted < r.StaticSingle.Admitted*3/2 {
		t.Fatalf("dynamic admitted %d, want >= 1.5x static %d",
			r.DynamicSingle.Admitted, r.StaticSingle.Admitted)
	}
	if r.DynamicSingle.SteadyOutstanding() <= r.StaticSingle.SteadyOutstanding() {
		t.Fatalf("dynamic outstanding %.1f <= static %.1f",
			r.DynamicSingle.SteadyOutstanding(), r.StaticSingle.SteadyOutstanding())
	}
	if r.DynamicSingle.Admitted > r.FullReplica.Admitted {
		t.Fatalf("dynamic admitted %d exceeds the offline full ladder %d",
			r.DynamicSingle.Admitted, r.FullReplica.Admitted)
	}
	out := FormatDynamic(r)
	if out == "" {
		t.Fatal("empty format")
	}
}
