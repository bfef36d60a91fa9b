package transcode

import (
	"errors"
	"math"
	"testing"

	"quasaq/internal/qos"
)

func q(w, h, depth int, fps float64) qos.AppQoS {
	return qos.AppQoS{
		Resolution: qos.Resolution{W: w, H: h},
		ColorDepth: depth,
		FrameRate:  fps,
		Format:     qos.FormatMPEG1,
	}
}

// Satellite guard: malformed variants must surface a typed error from
// Validate and must never push NaN or Inf through the cost pipeline.
func TestValidateRejectsMalformedVariants(t *testing.T) {
	good := q(720, 480, 24, 30)
	cases := []struct {
		name     string
		src, dst qos.AppQoS
	}{
		{"zero frame rate src", q(720, 480, 24, 0), q(352, 240, 24, 0)},
		{"negative frame rate src", q(720, 480, 24, -30), q(352, 240, 24, -30)},
		{"nan frame rate src", q(720, 480, 24, math.NaN()), q(352, 240, 24, 25)},
		{"zero resolution dst", good, q(0, 0, 24, 25)},
		{"negative resolution dst", good, q(-720, -480, 24, 25)},
		{"zero color depth dst", good, q(352, 240, 0, 25)},
		{"upscale", q(352, 240, 24, 25), q(720, 480, 24, 25)},
		{"deepen color", q(720, 480, 8, 25), q(352, 240, 24, 25)},
		{"raise fps", q(720, 480, 24, 25), q(352, 240, 24, 30)},
		{"identity", good, good},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Validate(tc.src, tc.dst); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Validate(%+v, %+v) = %v; want ErrInvalid", tc.src, tc.dst, err)
			}
		})
	}
	if err := Validate(q(720, 480, 24, 30), q(352, 240, 24, 25)); err != nil {
		t.Fatalf("valid downscale rejected: %v", err)
	}
}

func TestCostGuardsNeverNaNOrInf(t *testing.T) {
	good := q(720, 480, 24, 30)
	bad := []struct {
		name string
		q    qos.AppQoS
	}{
		{"zero fps", q(720, 480, 24, 0)},
		{"negative fps", q(720, 480, 24, -30)},
		{"nan fps", q(720, 480, 24, math.NaN())},
		{"inf fps", q(720, 480, 24, math.Inf(1))},
		{"zero resolution", q(0, 0, 24, 30)},
		{"negative resolution", q(-720, -480, 24, 30)},
		{"negative x positive resolution", q(-720, 480, 24, 30)},
		{"zero depth", q(720, 480, 0, 30)},
		{"negative depth", q(720, 480, -24, 30)},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			for _, pair := range [][2]qos.AppQoS{{tc.q, good}, {good, tc.q}, {tc.q, tc.q}} {
				c := CPUCost(pair[0], pair[1])
				if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
					t.Fatalf("CPUCost(%+v, %+v) = %v; want finite non-negative", pair[0], pair[1], c)
				}
			}
		})
	}
}

func TestPixelRateWeightsColorDepth(t *testing.T) {
	full := pixelRate(q(720, 480, 24, 30))
	half := pixelRate(q(720, 480, 12, 30))
	if full <= 0 {
		t.Fatalf("pixelRate(valid) = %v; want > 0", full)
	}
	if got, want := half/full, 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("12-bit/24-bit pixel-rate ratio = %v; want %v", got, want)
	}
}

func TestCPUCostMonotoneInTargetSize(t *testing.T) {
	src := q(720, 480, 24, 30)
	big := CPUCost(src, q(704, 480, 24, 30))
	small := CPUCost(src, q(352, 240, 24, 25))
	if !(big > small && small > 0) {
		t.Fatalf("cost not monotone: big=%v small=%v", big, small)
	}
}
