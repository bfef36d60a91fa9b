package experiments

import (
	"reflect"
	"testing"

	"quasaq/internal/simtime"
)

// Control-message loss belongs to the cell's world: under one cell seed the
// outcome must not depend on the config's own Ctrl.Seed, so every replica
// and every load level draws its loss stream from its own seed.
func TestAdmissionLossFollowsCellSeed(t *testing.T) {
	cfg := DefaultAdmissionConfig()
	cfg.Horizon = simtime.Seconds(60)
	cfg.Ctrl.Loss = 0.2
	var points [2]*AdmissionPoint
	for i, ctrlSeed := range []int64{1, 99} {
		c := cfg
		c.Ctrl.Seed = ctrlSeed
		p, err := runAdmissionPoint(c, 4, 17)
		if err != nil {
			t.Fatal(err)
		}
		points[i] = p
	}
	if points[0].CtrlTimeouts == 0 {
		t.Fatal("20% control loss caused no timeouts; the test no longer reaches the loss stream")
	}
	if !reflect.DeepEqual(points[0], points[1]) {
		t.Fatalf("Ctrl.Seed changed a cell's outcome: %d vs %d ctrl timeouts, %d vs %d admitted",
			points[0].CtrlTimeouts, points[1].CtrlTimeouts, points[0].Admitted, points[1].Admitted)
	}
}
