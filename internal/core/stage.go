package core

import (
	"quasaq/internal/qos"
)

// StageKind identifies a stage's role in the delivery pipeline.
type StageKind uint8

// The stage roles of a QuaSAQ delivery plan: reading the replica at its
// home site, converting it (inline on the delivery CPU or offloaded to the
// transcoding farm), and streaming to the client.
const (
	StageSource StageKind = iota
	StageTranscode
	StageDeliver
	// StageTailDeliver is the second delivery leg of a split plan: after
	// the edge prefix drains, the session hands over to this stage's site,
	// which streams the tail of the video from its full replica.
	StageTailDeliver
)

// String names the stage kind.
func (k StageKind) String() string {
	switch k {
	case StageSource:
		return "source"
	case StageTranscode:
		return "transcode"
	case StageDeliver:
		return "deliver"
	case StageTailDeliver:
		return "tail-deliver"
	default:
		return "unknown"
	}
}

// Stage is one unit of a plan's work, bound to a site (or the farm tier)
// with its own resource demand. Admission reserves every stage with
// reservation demand through the broker two-phase coordinator as one
// multi-participant transaction — all stages commit or none do, and a
// partition mid-PREPARE leaves only TTL-reclaimed leases.
type Stage struct {
	Kind StageKind
	// Site is where the stage runs: a cluster site, or the farm pseudo-site
	// for an offloaded transcode.
	Site string
	// Suffix distinguishes the stage's reservation participant: the
	// delivery stage reserves under the video title itself, the source
	// stage under "-relay", the tail leg under "-tail", a farm transcode
	// under "-transcode".
	Suffix string
	// Vec is the stage's reservation demand. A zero vector means the
	// stage's cost is folded into another stage (an inline transcode rides
	// the delivery stage's CPU) and no participant is reserved for it.
	Vec qos.ResourceVector
	// Work is the stage's processing rate in CPU-seconds per second of
	// video — what the transport submits per GOP when the stage runs on
	// the farm. Zero for source/deliver stages.
	Work float64
}

// Positions the stage order fixes (see Plan.Stages): every plan's deliver
// stage is first, and a split plan's tail stage directly follows it.
const (
	deliverStage = 0
	tailStage    = 1
)

// ReservationStages returns the stages that hold resources, in reservation
// order: the reserved prefix of Stages, one coordinator participant — and
// one committed lease — per entry. The slice is the plan's own and shared
// through the candidate cache; callers must not modify it.
func (p *Plan) ReservationStages() []Stage { return p.Stages[:p.reserved] }

// stage returns the plan's stage of the given kind, or nil.
func (p *Plan) stage(kind StageKind) *Stage {
	for i := range p.Stages {
		if p.Stages[i].Kind == kind {
			return &p.Stages[i]
		}
	}
	return nil
}

// Demand returns the demand vector of the plan's stage of the given kind,
// zero when the plan has no such stage.
func (p *Plan) Demand(kind StageKind) qos.ResourceVector {
	if st := p.stage(kind); st != nil {
		return st.Vec
	}
	return qos.ResourceVector{}
}

// FarmOffloaded reports whether the plan's transcode stage runs on the
// shared farm tier rather than inline on the delivery site's CPU.
func (p *Plan) FarmOffloaded() bool {
	st := p.stage(StageTranscode)
	return st != nil && st.Site != p.DeliverySite
}

// FarmBinding points the plan generator at the shared transcoding tier:
// when set, every transcoding candidate is emitted twice — once running
// inline on the delivery CPU, once offloading the conversion to the farm
// pseudo-site — and the cost models price the farm's congestion like any
// other bucket.
type FarmBinding struct {
	// Site is the farm's pseudo-site name in the cluster node table.
	Site string
}
