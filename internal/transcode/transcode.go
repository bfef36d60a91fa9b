// Package transcode models the transcoding server activity (set A4 in the
// paper's Figure 2): converting a stored replica's application QoS to a
// different target QoS, either offline (the replicator materializing the
// quality ladder, §3.1) or online during delivery (the prototype embedded a
// modified `transcode` tool in its Transport API, §4).
//
// Planning needs two things from a transcoder: a validity predicate (which
// conversions make sense) and a resource cost (CPU to run in real time).
// No byte is re-encoded: a transcode costs only CPU time, reserved by the
// plan and charged per frame by the delivery, or per GOP by the farm.
package transcode

import (
	"errors"
	"fmt"
	"math"

	"quasaq/internal/qos"
)

// ErrInvalid reports a conversion that static QoS rules forbid.
var ErrInvalid = errors.New("transcode: invalid conversion")

// Validate applies the paper's static pruning rules to a conversion: "it
// makes no sense to transcode from low resolution to high resolution"
// (§3.4) — and likewise for color depth and frame rate. Identity
// conversions are rejected too: a no-op transcode only wastes CPU.
func Validate(src, dst qos.AppQoS) error {
	if err := src.Validate(); err != nil {
		return fmt.Errorf("%w: source: %v", ErrInvalid, err)
	}
	if err := dst.Validate(); err != nil {
		return fmt.Errorf("%w: target: %v", ErrInvalid, err)
	}
	if !src.Resolution.AtLeast(dst.Resolution) {
		return fmt.Errorf("%w: upscaling %v -> %v", ErrInvalid, src.Resolution, dst.Resolution)
	}
	if dst.ColorDepth > src.ColorDepth {
		return fmt.Errorf("%w: deepening color %d -> %d bits", ErrInvalid, src.ColorDepth, dst.ColorDepth)
	}
	if dst.FrameRate > src.FrameRate+1e-9 {
		return fmt.Errorf("%w: raising frame rate %.5g -> %.5g", ErrInvalid, src.FrameRate, dst.FrameRate)
	}
	if src.Resolution == dst.Resolution && src.ColorDepth == dst.ColorDepth &&
		src.FrameRate == dst.FrameRate && src.Format == dst.Format {
		return fmt.Errorf("%w: identity conversion", ErrInvalid)
	}
	return nil
}

// Calibration constants for real-time transcoding cost on the paper's
// hardware class (Pentium 4, 2.4 GHz): decoding DVD-quality MPEG-1
// (~8.3 Mpixel/s) costs about 15% of a CPU; encoding the same costs about
// 2.5x more.
const (
	decodeCostPerPixel = 1.8e-8 // CPU fraction per (pixel/s)
	encodeCostPerPixel = 4.5e-8
)

// pixelRate is the decoded pixel throughput of a quality, weighting color
// depth relative to the full 24-bit path. Qualities a Validate call would
// reject (zero or negative resolution, frame rate, or color depth — and NaN
// frame rates, which fail every comparison) rate as zero throughput, so a
// malformed variant can never push NaN or Inf into the cost pipeline.
func pixelRate(q qos.AppQoS) float64 {
	if q.Resolution.W <= 0 || q.Resolution.H <= 0 || q.ColorDepth <= 0 ||
		!(q.FrameRate > 0) || math.IsInf(q.FrameRate, 1) {
		return 0
	}
	px := float64(q.Resolution.Pixels())
	return px * q.FrameRate * float64(q.ColorDepth) / 24
}

// CPUCost estimates the CPU fraction needed to transcode src to dst in real
// time: the resource-vector entry the plan generator attaches to plans with
// an online transcoding step. It is defensive: variants that fail Validate
// cost 0, never NaN or Inf — the coster divides by and compares these
// values, and one poisoned plan would corrupt the whole admission ranking.
func CPUCost(src, dst qos.AppQoS) float64 {
	return pixelRate(src)*decodeCostPerPixel + pixelRate(dst)*encodeCostPerPixel
}
