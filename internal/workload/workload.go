// Package workload implements the traffic generator of §5: "Instead of
// user inputs from a GUI-based client program, the queries for the
// experiments are from a traffic generator. ... the access rate to each
// individual video is the same and each QoS parameter is uniformly
// distributed in its valid range. The inter-arrival time for queries is
// exponentially distributed with an average of 1 second."
package workload

import (
	"quasaq/internal/media"
	"quasaq/internal/qop"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// Request is one generated query: arrival time, receiving site, target
// video, and the QoS requirement (already translated from the QoP tier).
type Request struct {
	At    simtime.Time
	Site  string
	Video media.VideoID
	Req   qos.Requirement
}

// Tiers returns the uniform QoP grid the generator draws from: one tier per
// replica quality class, so "each QoS parameter is uniformly distributed in
// its valid range".
func Tiers() []qop.QoP {
	return []qop.QoP{
		{Spatial: qop.SpatialDVD, Temporal: qop.TemporalSmooth, Color: qop.ColorTrue},
		{Spatial: qop.SpatialTV, Temporal: qop.TemporalStandard, Color: qop.ColorTrue},
		{Spatial: qop.SpatialVCD, Temporal: qop.TemporalStandard, Color: qop.ColorBasic},
		{Spatial: qop.SpatialLow, Temporal: qop.TemporalStandard, Color: qop.ColorGray},
	}
}

// Phase is one segment of a piecewise-constant arrival-rate schedule: for
// Duration, queries arrive at Rate times the configured base rate (so a
// ramp like {1, 6, 15, 6, 1} models load climbing past capacity and
// receding).
type Phase struct {
	Rate     float64
	Duration simtime.Time
}

// Config parameterizes a generator.
type Config struct {
	Seed             int64
	Videos           []*media.Video
	Sites            []string
	MeanInterArrival simtime.Time // default 1 s, the paper's rate
	// ZipfSkew skews video popularity; 0 keeps the paper's uniform access.
	ZipfSkew float64
	// Phases, when non-empty, modulates the arrival rate over virtual time.
	// After the last phase elapses its rate persists. Empty keeps the
	// paper's homogeneous Poisson stream.
	Phases []Phase
}

// Generator produces a deterministic Poisson query stream.
type Generator struct {
	cfg     Config
	rng     *simtime.Rand
	profile *qop.Profile
	tiers   []qop.QoP
	pick    func() int
	now     simtime.Time
}

// New creates a generator. It panics on an empty corpus or site list, which
// are programming errors in experiment setup.
func New(cfg Config) *Generator {
	if len(cfg.Videos) == 0 || len(cfg.Sites) == 0 {
		panic("workload: empty corpus or site list")
	}
	if cfg.MeanInterArrival <= 0 {
		cfg.MeanInterArrival = simtime.Seconds(1)
	}
	for _, p := range cfg.Phases {
		if p.Rate <= 0 || p.Duration <= 0 {
			panic("workload: phases need positive rate and duration")
		}
	}
	g := &Generator{
		cfg:     cfg,
		rng:     simtime.NewRand(cfg.Seed),
		profile: qop.DefaultProfile("traffic-generator"),
		tiers:   Tiers(),
	}
	if cfg.ZipfSkew > 0 {
		g.pick = g.rng.Zipf(cfg.ZipfSkew, len(cfg.Videos))
	} else {
		g.pick = func() int { return g.rng.Intn(len(cfg.Videos)) }
	}
	return g
}

// phaseMean returns the mean inter-arrival time in effect at virtual time t:
// the base mean divided by the active phase's rate multiplier.
func (g *Generator) phaseMean(t simtime.Time) simtime.Time {
	mean := g.cfg.MeanInterArrival
	if len(g.cfg.Phases) == 0 {
		return mean
	}
	rate := g.cfg.Phases[len(g.cfg.Phases)-1].Rate // persists past the schedule
	var edge simtime.Time
	for _, p := range g.cfg.Phases {
		edge += p.Duration
		if t < edge {
			rate = p.Rate
			break
		}
	}
	return simtime.Time(float64(mean) / rate)
}

// Next draws the next request. Arrival times are strictly increasing.
func (g *Generator) Next() Request {
	g.now += g.rng.ExpDur(g.phaseMean(g.now))
	tier := g.rng.Intn(len(g.tiers))
	return Request{
		At:    g.now,
		Site:  g.cfg.Sites[g.rng.Intn(len(g.cfg.Sites))],
		Video: g.cfg.Videos[g.pick()].ID,
		Req:   g.profile.Translate(g.tiers[tier]),
	}
}

// Drive schedules every arrival up to horizon on the simulator, invoking
// serve for each request at its arrival instant.
func (g *Generator) Drive(sim *simtime.Simulator, horizon simtime.Time, serve func(Request)) int {
	n := 0
	for {
		r := g.Next()
		if r.At > horizon {
			return n
		}
		n++
		req := r
		sim.ScheduleAt(r.At, func() { serve(req) })
	}
}
