// Package media models the video corpus: logical video objects, their
// physical quality variants, and the VBR frame-size structure of MPEG-style
// group-of-pictures coding.
//
// The paper's experimental database held 15 MPEG-1 videos with playback
// times from 30 seconds to 18 minutes, replicated in three to four quality
// variants fitted to typical link classes (T1/DSL/modem) [§4, §5]. Those
// files cannot ship with this reproduction, so StandardCorpus generates a
// deterministic synthetic corpus with the same shape: the same count,
// duration spread, GOP structure (which produces Table 2's intrinsic
// inter-frame variance), and bitrate ladder.
package media

import (
	"fmt"
	"math"

	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// VideoID identifies a logical video object — the paper's *logical OID*,
// naming content rather than a stored file (§4).
type VideoID uint32

// String renders the id as v<NNN>.
func (id VideoID) String() string { return fmt.Sprintf("v%03d", uint32(id)) }

// FrameKind is the MPEG picture coding type.
type FrameKind uint8

// Picture coding types.
const (
	FrameI FrameKind = iota
	FrameP
	FrameB
)

// String returns "I", "P" or "B".
func (k FrameKind) String() string {
	switch k {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return "?"
	}
}

// GOPPattern is a repeating picture-type sequence, e.g. the classic
// IBBPBBPBBPBBPBB used by the synthetic corpus. Frames are in display
// order; coded-order reordering is not modelled.
type GOPPattern []FrameKind

// DefaultGOP is the 15-frame, M=3 pattern typical of MPEG-1 video. At
// 23.97 fps one GOP spans 625.8 ms, matching the inter-GOP delays of
// Table 2 (~623-626 ms).
func DefaultGOP() GOPPattern {
	return GOPPattern{
		FrameI, FrameB, FrameB,
		FrameP, FrameB, FrameB,
		FrameP, FrameB, FrameB,
		FrameP, FrameB, FrameB,
		FrameP, FrameB, FrameB,
	}
}

// Kind returns the picture type of frame i of a stream using this pattern.
func (g GOPPattern) Kind(i int) FrameKind { return g[i%len(g)] }

// Len returns the GOP length in frames.
func (g GOPPattern) Len() int { return len(g) }

// relativeSize is the mean coded size of each picture type relative to the
// GOP-wide mean. Ratios follow common MPEG-1 measurements: I frames several
// times larger than B frames.
func (k FrameKind) relativeSize() float64 {
	switch k {
	case FrameI:
		return 5.0
	case FrameP:
		return 1.7
	default:
		return 0.45
	}
}

// normalization returns the factor that makes the pattern's mean relative
// size exactly 1, so a variant's nominal bitrate is preserved.
func (g GOPPattern) normalization() float64 {
	var sum float64
	for _, k := range g {
		sum += k.relativeSize()
	}
	return float64(len(g)) / sum
}

// Video is a logical video object: pure content identity plus the temporal
// structure shared by all of its physical variants.
type Video struct {
	ID        VideoID
	Title     string
	Duration  simtime.Time
	FrameRate float64 // frames per second of the source material
	GOP       GOPPattern
	Tags      []string // semantic annotations for content queries
	Seed      uint64   // drives deterministic per-frame VBR dispersion
}

// Frames returns the total number of frames in the video.
func (v *Video) Frames() int {
	return int(math.Round(simtime.ToSeconds(v.Duration) * v.FrameRate))
}

// FrameInterval returns the ideal inter-frame interval 1/fps — 41.72 ms for
// the paper's 23.97 fps sample video.
func (v *Video) FrameInterval() simtime.Time {
	return simtime.Seconds(1 / v.FrameRate)
}

// GOPInterval returns the ideal inter-GOP interval.
func (v *Video) GOPInterval() simtime.Time {
	return simtime.Seconds(float64(v.GOP.Len()) / v.FrameRate)
}

// NominalBitrate estimates the mean coded bitrate, in bytes per second, of
// a presentation with application QoS q. The constant is calibrated so that
// VCD-class MPEG-1 (352x240, 24 bit, 29.97 fps) lands near its standard
// 1.15 Mb/s; other formats scale by their relative coding efficiency.
func NominalBitrate(q qos.AppQoS) float64 {
	bitsPerPixel := formatEfficiency(q.Format) * float64(q.ColorDepth) / 24.0
	bits := float64(q.Resolution.Pixels()) * q.FrameRate * bitsPerPixel
	return bits / 8
}

func formatEfficiency(f qos.Format) float64 {
	switch f {
	case qos.FormatMPEG2:
		return 0.40 // slightly better motion compensation
	case qos.FormatMJPEG:
		return 1.60 // intra-only, far less efficient
	default: // MPEG-1
		return 0.46
	}
}

// Variant is one physical replica quality: the paper's *physical object*,
// stored at some site with concrete application QoS (§3.3 "Quality
// Metadata"). Location is deliberately not part of Variant; the
// distribution metadata binds variants to sites.
type Variant struct {
	Quality qos.AppQoS
	Bitrate float64 // mean bytes per second, derived from Quality
}

// NewVariant derives a variant (with its nominal bitrate) from a quality.
func NewVariant(q qos.AppQoS) Variant {
	return Variant{Quality: q, Bitrate: NominalBitrate(q)}
}

// SizeBytes returns the expected stored size of video v coded at this
// variant's quality.
func (va Variant) SizeBytes(v *Video) int64 {
	return int64(va.Bitrate * simtime.ToSeconds(v.Duration))
}

// FrameSize returns the deterministic coded size, in bytes, of frame i of
// video v at this variant's quality. Sizes follow the GOP structure (large
// I, small B) with log-normal per-frame dispersion — the VBR variance that
// the paper calls "intrinsic" and smooths out at GOP level (§5.1).
func (va Variant) FrameSize(v *Video, i int) int {
	meanFrame := va.Bitrate / v.FrameRate
	rel := v.GOP.Kind(i).relativeSize() * v.GOP.normalization()
	// Deterministic log-normal jitter: hash (seed, frame) to a unit pair,
	// Box-Muller to a Gaussian, sigma chosen to give realistic dispersion
	// without letting the mean drift (mean of exp(N(-s^2/2, s)) = 1).
	const sigma = 0.18
	u1, u2 := hashUnitPair(v.Seed, uint64(i))
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	jitter := math.Exp(-sigma*sigma/2 + sigma*z)
	size := meanFrame * rel * jitter
	if size < 64 {
		size = 64 // headers make even an empty frame non-trivial
	}
	return int(size)
}

// GOPSize returns the total coded size of the GOP starting at frame first.
func (va Variant) GOPSize(v *Video, first int) int64 {
	var total int64
	end := min(first+v.GOP.Len(), v.Frames())
	for i := first; i < end; i++ {
		total += int64(va.FrameSize(v, i))
	}
	return total
}

// hashUnitPair maps (seed, n) to two uniforms in (0,1), using splitmix64.
// Random access by frame index matters: the transport layer asks for sizes
// out of order when frames are dropped.
func hashUnitPair(seed, n uint64) (float64, float64) {
	a := splitmix64(seed ^ (n * 0x9E3779B97F4A7C15))
	b := splitmix64(a)
	const scale = 1.0 / (1 << 53)
	u1 := (float64(a>>11) + 0.5) * scale
	u2 := (float64(b>>11) + 0.5) * scale
	return u1, u2
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
