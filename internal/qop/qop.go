// Package qop implements the QoP Browser of §3.2: the user-facing layer
// where quality is expressed qualitatively (Quality of Presentation) and
// translated into the quantitative application-QoS ranges that QoS-aware
// queries carry. A User Profile holds the per-user QoP→QoS mappings and the
// per-user weighting of quality dimensions that drives renegotiation
// ("one user may prefer reduction in the temporal resolution while another
// user may prefer a reduction in the spatial resolution").
package qop

import (
	"fmt"

	"quasaq/internal/qos"
)

// SpatialLevel is the qualitative spatial-resolution vocabulary.
type SpatialLevel uint8

// Spatial levels, worst first.
const (
	SpatialAny SpatialLevel = iota
	SpatialLow              // thumbnails, previews
	SpatialVCD              // the paper's "VCD-like" example
	SpatialTV
	SpatialDVD
)

// String names the level.
func (l SpatialLevel) String() string {
	return [...]string{"any", "low", "VCD-like", "TV-like", "DVD-like"}[l]
}

// TemporalLevel is the qualitative temporal-resolution vocabulary.
type TemporalLevel uint8

// Temporal levels, worst first.
const (
	TemporalAny TemporalLevel = iota
	TemporalChoppy
	TemporalStandard
	TemporalSmooth
)

// String names the level.
func (l TemporalLevel) String() string {
	return [...]string{"any", "choppy", "standard", "smooth"}[l]
}

// ColorLevel is the qualitative color-depth vocabulary.
type ColorLevel uint8

// Color levels, worst first.
const (
	ColorAny ColorLevel = iota
	ColorGray
	ColorBasic
	ColorTrue
)

// String names the level.
func (l ColorLevel) String() string {
	return [...]string{"any", "grayscale", "basic", "true-color"}[l]
}

// QoP is a user's qualitative quality request.
type QoP struct {
	Spatial  SpatialLevel
	Temporal TemporalLevel
	Color    ColorLevel
	Security qos.SecurityLevel
}

// String renders the request, e.g. "VCD-like/standard/true-color".
func (q QoP) String() string {
	s := fmt.Sprintf("%v/%v/%v", q.Spatial, q.Temporal, q.Color)
	if q.Security != qos.SecurityNone {
		s += "/" + q.Security.String()
	}
	return s
}

// Dimension identifies one QoP axis for weighting and renegotiation.
type Dimension uint8

// Weightable dimensions.
const (
	DimSpatial Dimension = iota
	DimTemporal
	DimColor
)

// String names the dimension.
func (d Dimension) String() string {
	return [...]string{"spatial", "temporal", "color"}[d]
}

// Weights is the per-user importance of each dimension; higher = the user
// cares more, so it degrades last.
type Weights struct {
	Spatial, Temporal, Color float64
}

// Profile is a user profile: QoP→QoS mappings plus preference weights.
// Mappings are per-user (the paper notes the translation "highly depends on
// the user's personal preference"); the zero-value mapping overrides fall
// back to defaults.
type Profile struct {
	Name    string
	Weights Weights
	// SpatialBands optionally overrides the default resolution band per
	// spatial level.
	SpatialBands map[SpatialLevel][2]qos.Resolution
	// MinFPS optionally overrides the default minimum frame rate per
	// temporal level.
	MinFPS map[TemporalLevel]float64
}

// DefaultProfile returns a neutral profile with even weights.
func DefaultProfile(name string) *Profile {
	return &Profile{Name: name, Weights: Weights{Spatial: 1, Temporal: 1, Color: 1}}
}

// defaultSpatialBands maps spatial levels to [min, max] resolution bands.
// SpatialVCD follows the paper's worked example: 320x240 - 352x288.
var defaultSpatialBands = map[SpatialLevel][2]qos.Resolution{
	SpatialAny: {{}, {}},
	SpatialLow: {{}, qos.ResVCD},
	SpatialVCD: {qos.ResVCD, qos.ResCIF},
	SpatialTV:  {qos.ResCIF, qos.ResSD},
	SpatialDVD: {qos.ResDVD, {}},
}

var defaultMinFPS = map[TemporalLevel]float64{
	TemporalAny:      0,
	TemporalChoppy:   8,
	TemporalStandard: 20,
	TemporalSmooth:   23,
}

var minDepth = map[ColorLevel]int{
	ColorAny:   0,
	ColorGray:  8,
	ColorBasic: 16,
	ColorTrue:  24,
}

// Translate maps a qualitative QoP to the quantitative application-QoS
// requirement embedded in the query (the User Profile's core job, §3.2).
func (p *Profile) Translate(q QoP) qos.Requirement {
	band, ok := p.SpatialBands[q.Spatial]
	if !ok {
		band = defaultSpatialBands[q.Spatial]
	}
	minFPS, ok := p.MinFPS[q.Temporal]
	if !ok {
		minFPS = defaultMinFPS[q.Temporal]
	}
	return qos.Requirement{
		MinResolution: band[0],
		MaxResolution: band[1],
		MinFrameRate:  minFPS,
		MinColorDepth: minDepth[q.Color],
		Security:      q.Security,
	}
}

// DegradationOrder returns the dimensions sorted by ascending weight: the
// order in which this user prefers quality to be reduced during
// renegotiation. Ties break spatial < temporal < color for determinism.
func (p *Profile) DegradationOrder() []Dimension {
	dims := []Dimension{DimSpatial, DimTemporal, DimColor}
	w := func(d Dimension) float64 {
		switch d {
		case DimSpatial:
			return p.Weights.Spatial
		case DimTemporal:
			return p.Weights.Temporal
		default:
			return p.Weights.Color
		}
	}
	// Three elements: simple stable selection.
	for i := 0; i < len(dims); i++ {
		for j := i + 1; j < len(dims); j++ {
			if w(dims[j]) < w(dims[i]) {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims
}

// Degrade produces the next-weaker QoP according to the user's preference
// order, lowering the least-valued dimension that still has room. It
// reports false when nothing can be degraded further.
func (p *Profile) Degrade(q QoP) (QoP, bool) {
	for _, d := range p.DegradationOrder() {
		switch d {
		case DimSpatial:
			if q.Spatial > SpatialLow {
				q.Spatial--
				return q, true
			}
		case DimTemporal:
			if q.Temporal > TemporalChoppy {
				q.Temporal--
				return q, true
			}
		case DimColor:
			if q.Color > ColorGray {
				q.Color--
				return q, true
			}
		}
	}
	return q, false
}

// Alternatives enumerates progressively weaker requirements for the
// "second chance" path after an admission rejection (§3.2): up to max
// degradation steps, each translated to a requirement.
func (p *Profile) Alternatives(q QoP, max int) []qos.Requirement {
	var out []qos.Requirement
	cur := q
	for i := 0; i < max; i++ {
		next, ok := p.Degrade(cur)
		if !ok {
			break
		}
		cur = next
		out = append(out, p.Translate(cur))
	}
	return out
}

// Physician returns the intro scenario's demanding profile: "jitter-free
// playback of very high frame rate and resolution video ... is critical".
func Physician() *Profile {
	p := DefaultProfile("physician")
	p.Weights = Weights{Spatial: 10, Temporal: 8, Color: 3}
	return p
}

// Nurse returns the intro scenario's relaxed profile: "a nurse accessing
// the same data for organization purposes may not require the same high
// quality".
func Nurse() *Profile {
	p := DefaultProfile("nurse")
	p.Weights = Weights{Spatial: 2, Temporal: 1, Color: 1}
	return p
}
