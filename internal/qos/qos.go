// Package qos defines the quality-of-service parameter algebra used across
// QuaSAQ: application-level QoS descriptors of video replicas (resolution,
// color depth, frame rate, format — §3.3 "Quality Metadata"), the
// user-facing qualitative QoP vocabulary (§3.2), requirement ranges that
// QoS-enhanced queries carry, and the resource vectors that the cost model
// consumes (§3.4).
//
// The four QoS levels of the paper's Table 1 (user, application, system,
// network) are represented by, respectively: the qop package's profiles,
// AppQoS, ResourceVector's CPU/memory/disk axes, and its network axis plus
// the netsim link parameters.
package qos

import (
	"fmt"
	"strconv"
	"strings"
)

// Format identifies the coding format of a physical video replica. The
// paper's corpus is MPEG-1 with MPEG-2 transcoding targets; MJPEG is kept as
// a low-end target the transcoder supports.
type Format uint8

// Supported video formats.
const (
	FormatUnknown Format = iota
	FormatMPEG1
	FormatMPEG2
	FormatMJPEG
)

var formatNames = map[Format]string{
	FormatUnknown: "unknown",
	FormatMPEG1:   "MPEG1",
	FormatMPEG2:   "MPEG2",
	FormatMJPEG:   "MJPEG",
}

// String returns the conventional format name.
func (f Format) String() string {
	if s, ok := formatNames[f]; ok {
		return s
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// ParseFormat resolves a case-insensitive format name.
func ParseFormat(s string) (Format, error) {
	for f, name := range formatNames {
		if strings.EqualFold(s, name) {
			return f, nil
		}
	}
	return FormatUnknown, fmt.Errorf("qos: unknown format %q", s)
}

// Resolution is a spatial resolution in pixels.
type Resolution struct {
	W, H int
}

// Standard resolutions referenced in the paper (§3.2 maps "VCD-like" to the
// 320x240–352x288 range; Figure 2 uses 720x480, 640x420 and 352x288).
var (
	ResQCIF = Resolution{176, 144}
	ResVCD  = Resolution{320, 240}
	ResCIF  = Resolution{352, 288}
	ResSD   = Resolution{640, 480}
	ResDVD  = Resolution{720, 480}
)

// Pixels returns the pixel count of one frame.
func (r Resolution) Pixels() int { return r.W * r.H }

// String formats the resolution as WxH.
func (r Resolution) String() string { return fmt.Sprintf("%dx%d", r.W, r.H) }

// AtLeast reports whether r has at least the pixel dimensions of o in both
// axes. Static plan pruning uses this: a replica may not be *up*-scaled to
// meet a resolution requirement (§3.4 "it makes no sense to transcode from
// low resolution to high resolution").
func (r Resolution) AtLeast(o Resolution) bool { return r.W >= o.W && r.H >= o.H }

// SecurityLevel expresses the "Security" application-QoS parameter of
// Table 1. Higher levels require stronger (more CPU-expensive) encryption.
type SecurityLevel uint8

// Security levels orderable by strength.
const (
	SecurityNone SecurityLevel = iota
	SecurityStandard
	SecurityStrong
)

// String names the security level.
func (s SecurityLevel) String() string {
	switch s {
	case SecurityNone:
		return "none"
	case SecurityStandard:
		return "standard"
	case SecurityStrong:
		return "strong"
	default:
		return fmt.Sprintf("SecurityLevel(%d)", uint8(s))
	}
}

// AppQoS is the application-level QoS of one concrete video presentation or
// replica: the quantitative parameters the query processor understands
// (Table 1, application row).
type AppQoS struct {
	Resolution Resolution
	ColorDepth int     // bits per pixel: 8, 12, 16, 24
	FrameRate  float64 // frames per second
	Format     Format
	Security   SecurityLevel
}

// String renders the tuple compactly, e.g. "720x480/24bit/23.97fps/MPEG1".
func (q AppQoS) String() string {
	s := fmt.Sprintf("%s/%dbit/%.5gfps/%s", q.Resolution, q.ColorDepth, q.FrameRate, q.Format)
	if q.Security != SecurityNone {
		s += "/" + q.Security.String()
	}
	return s
}

// Validate checks the parameters for internal consistency.
func (q AppQoS) Validate() error {
	if q.Resolution.W <= 0 || q.Resolution.H <= 0 {
		return fmt.Errorf("qos: non-positive resolution %v", q.Resolution)
	}
	switch q.ColorDepth {
	case 8, 12, 16, 24:
	default:
		return fmt.Errorf("qos: unsupported color depth %d", q.ColorDepth)
	}
	// Negated comparisons so NaN (which fails every ordering test) lands in
	// the error branch instead of slipping past a `<= 0 || > 120` pair.
	if !(q.FrameRate > 0) || !(q.FrameRate <= 120) {
		return fmt.Errorf("qos: frame rate %v out of range", q.FrameRate)
	}
	if q.Format == FormatUnknown {
		return fmt.Errorf("qos: unknown format")
	}
	return nil
}

// Requirement is the QoS component of a QoS-aware query: acceptable ranges
// for each application-QoS dimension. A zero field bound means "don't
// care" on that side. Ranges (rather than points) give QuaSAQ the
// application-level flexibility the paper argues for (§3.2).
type Requirement struct {
	MinResolution Resolution
	MaxResolution Resolution
	MinColorDepth int
	MinFrameRate  float64
	MaxFrameRate  float64
	Formats       []Format      // acceptable formats; empty = any
	Security      SecurityLevel // minimum required security

	// Net holds the AND-composed network-metric thresholds of the clause
	// (delay <=, jitter <=, loss <=, throughput >=), kept in canonical
	// precedence order (see normalizeNet). Empty means no network terms:
	// admission prices plans on app QoS alone and the guardian falls back
	// to its config-relative thresholds.
	Net []Threshold
}

// SatisfiedBy reports whether a concrete presentation quality q meets every
// constraint of the requirement.
func (r Requirement) SatisfiedBy(q AppQoS) bool {
	if r.MinResolution.W > 0 && !q.Resolution.AtLeast(r.MinResolution) {
		return false
	}
	if r.MaxResolution.W > 0 && !r.MaxResolution.AtLeast(q.Resolution) {
		return false
	}
	if q.ColorDepth < r.MinColorDepth {
		return false
	}
	if r.MinFrameRate > 0 && q.FrameRate < r.MinFrameRate-1e-9 {
		return false
	}
	if r.MaxFrameRate > 0 && q.FrameRate > r.MaxFrameRate+1e-9 {
		return false
	}
	if len(r.Formats) > 0 {
		ok := false
		for _, f := range r.Formats {
			if f == q.Format {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return q.Security >= r.Security
}

// fpsString renders a frame rate to five significant digits. Where "%.5g"
// goes scientific (100000 becomes "1e+05", which the clause lexer rejects)
// the rounded value is re-rendered in plain decimal: String() output must
// re-parse.
func fpsString(fps float64) string {
	s := strconv.FormatFloat(fps, 'g', 5, 64)
	if strings.ContainsRune(s, 'e') {
		rounded, _ := strconv.ParseFloat(s, 64)
		return trimFloat(rounded)
	}
	return s
}

// String renders the requirement for logs and the qsqctl client.
func (r Requirement) String() string {
	var parts []string
	if r.MinResolution.W > 0 {
		parts = append(parts, "res>="+r.MinResolution.String())
	}
	if r.MaxResolution.W > 0 {
		parts = append(parts, "res<="+r.MaxResolution.String())
	}
	if r.MinColorDepth > 0 {
		parts = append(parts, fmt.Sprintf("depth>=%d", r.MinColorDepth))
	}
	if r.MinFrameRate > 0 {
		parts = append(parts, "fps>="+fpsString(r.MinFrameRate))
	}
	if r.MaxFrameRate > 0 {
		parts = append(parts, "fps<="+fpsString(r.MaxFrameRate))
	}
	if len(r.Formats) > 0 {
		names := make([]string, len(r.Formats))
		for i, f := range r.Formats {
			names[i] = f.String()
		}
		parts = append(parts, "format IN ("+strings.Join(names, ",")+")")
	}
	if r.Security != SecurityNone {
		parts = append(parts, "security>="+r.Security.String())
	}
	for _, t := range normalizeNet(r.Net) {
		parts = append(parts, t.String())
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ", ")
}
