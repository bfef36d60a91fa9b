// Package core implements the paper's primary contribution: the
// Quality-of-Service Aware Query Processor (QuaSAQ, §3). It contains the
// plan generator that enumerates QoS-aware delivery plans over the disjoint
// activity sets of Figure 2 (object retrieval, target site, frame dropping,
// transcoding, encryption), the static and dynamic pruning rules of §3.4,
// the runtime cost evaluator with the Lowest Resource Bucket model (Eq. 1)
// and its baselines, and the quality manager that admits, reserves and
// executes the chosen plan against the cluster substrates.
package core

import (
	"fmt"
	"strings"

	"quasaq/internal/cryptoact"
	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transcode"
	"quasaq/internal/transport"
)

// Plan is one executable QoS-aware delivery plan: an ordered selection from
// the disjoint sets A1 (physical replica), A2 (delivery site), A3 (frame
// dropping), A4 (transcoding target), A5 (encryption algorithm). The
// ordering of server activities is fixed (retrieval first, encryption after
// dropping — the §3.4 rule that encrypting to-be-dropped frames wastes CPU),
// which reduces the search space from O(n!·dⁿ) to O(dⁿ).
type Plan struct {
	Replica      *metadata.Replica
	DeliverySite string
	Drop         transport.DropStrategy
	Transcode    *qos.AppQoS          // nil = deliver the replica's coding as-is
	Encrypt      *cryptoact.Algorithm // nil = plaintext

	// Delivered is the application QoS the user receives: the replica's
	// quality after transcoding, with the drop strategy's effective frame
	// rate and the encryption's security level folded in.
	Delivered qos.AppQoS
	// DeliveredVariant is the coded variant streamed to the client.
	DeliveredVariant media.Variant
	// ExtraPerFrameCPU is the per-delivered-frame CPU time of the plan's
	// online activities (transcode + encrypt), submitted with each frame.
	ExtraPerFrameCPU simtime.Time

	// TailReplica, on a split plan, is the full replica that streams the
	// remainder of the video after the edge prefix drains; nil on ordinary
	// plans. Replica is then the prefix copy and DeliverySite its edge site.
	TailReplica *metadata.Replica
	// SplitFrame is the GOP-aligned frame where a split plan hands the
	// stream over from the prefix leg to the tail leg.
	SplitFrame int

	// Stages is the single record of what the plan runs and reserves, built
	// once by the generator and read-only afterwards (cached candidate sets
	// are shared across queries). The order is the reservation order: the
	// deliver stage first (the scarcest decision), then a split plan's tail
	// leg, the source relay, and a farm-offloaded transcode. Those stages
	// hold resources — the reserved prefix, ReservationStages — and the
	// coordinator PREPAREs them sequentially in this order. A stage with no
	// demand of its own (the inline transcode, whose cost rides the deliver
	// stage's CPU) follows the prefix.
	Stages   []Stage
	reserved int // length of the reserved prefix
}

// Remote reports whether the plan relays the replica between sites.
func (p *Plan) Remote() bool { return p.Replica.Site != p.DeliverySite }

// Split reports whether the plan delivers in two legs: prefix from an
// edge cache, tail from a full replica after the handover boundary.
func (p *Plan) Split() bool { return p.TailReplica != nil }

// PricedNetQoS prices the plan's nominal network vector for clause-gated
// admission: the ideal inter-frame delay implied by the delivered
// (drop-adjusted) frame rate, the reserved network byte rate as
// throughput, and zero loss/jitter — a reserved plan is priced as meeting
// its booking. A clause bound the plan cannot even nominally reach
// therefore rejects at admit time (ErrQoSUnsatisfiable); runtime
// deviations from the priced vector are the guardian's concern.
func (p *Plan) PricedNetQoS() qos.NetQoS {
	out := qos.NetQoS{ThroughputBps: p.Stages[deliverStage].Vec[qos.ResNetBandwidth]}
	if fps := p.Delivered.FrameRate; fps > 0 {
		out.DelayMillis = 1000 / fps
	}
	return out
}

// String renders the plan like the paper's worked example: retrieve,
// transfer, transcode, drop, encrypt.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "retrieve %s (%s)", p.Replica.ID(), p.Replica.Variant.Quality)
	if p.Remote() {
		fmt.Fprintf(&b, " -> transfer to %s", p.DeliverySite)
	}
	if p.Split() {
		fmt.Fprintf(&b, " -> handover to %s at frame %d", p.TailReplica.ID(), p.SplitFrame)
	}
	if p.Transcode != nil {
		fmt.Fprintf(&b, " -> transcode to %s", *p.Transcode)
		if p.FarmOffloaded() {
			b.WriteString(" on farm")
		}
	}
	if p.Drop != transport.DropNone {
		fmt.Fprintf(&b, " -> drop %s", p.Drop)
	}
	if p.Encrypt != nil {
		fmt.Fprintf(&b, " -> encrypt %s", p.Encrypt.Name)
	}
	return b.String()
}

// Generator enumerates and statically prunes QoS-aware plans over the
// whole §4 search space: every replica (set A1), every origin delivery site
// (A2), every frame-dropping strategy (A3), every transcoding target (A4)
// and every admissible encryption (A5).
type Generator struct {
	dir *metadata.Directory
	// capacity is the per-site resource capacity used by the static
	// plan-drop rule: a plan whose demand cannot fit an *empty* site is
	// "intolerably high cost" (§3.4) and is dropped at generation time.
	capacity qos.ResourceVector
	// farm, once a non-neutral farm is attached, adds farm-offloaded
	// variants of every transcoding candidate: the conversion's CPU moves
	// off the delivery site onto FarmSite as a stage of its own, reserved
	// as a third participant of the plan's two-phase transaction.
	farm bool
}

// NewGenerator creates a plan generator over the cluster's metadata for
// sites of the given capacity.
func NewGenerator(dir *metadata.Directory, capacity qos.ResourceVector) *Generator {
	return &Generator{dir: dir, capacity: capacity}
}

// GenerateAll enumerates the plans able to answer the query for video v
// with requirement req, as seen from querySite, in deterministic order.
// Static QoS rules prune the space inline: no upscaling, no pointless
// encryption, no identity transcodes, no plans that could never be
// admitted.
func (g *Generator) GenerateAll(querySite string, v *media.Video, req qos.Requirement) []*Plan {
	e := enumeration{g: g, v: v, req: req, encs: g.encryptionChoices(req)}
	for d := range transport.NumDropStrategies {
		e.frameFactor[d] = d.FrameFactor(v.GOP)
	}
	replicas := g.dir.Lookup(querySite, v.ID)
	sites := g.dir.Sites()
	// Edge proxy sites never relay other sites' replicas: they are
	// delivery candidates only for copies they hold themselves. With no
	// edge tier every site is origin and this set is exactly dir.Sites().
	edge := make(map[string]bool)
	for _, s := range sites {
		if g.dir.Tier(s) == metadata.TierEdge {
			edge[s] = true
		}
	}
	// Edge-held replicas enumerate first — split plans off prefix copies,
	// then full promoted copies — because an edge plan and the origin plan
	// it shadows often price identically under Eq. 1 (same demand vectors
	// against equally filled buckets) and the ranked models sort stably:
	// putting the edge candidates first breaks equal-cost ties toward edge
	// delivery, which is the point of the tier (startup latency,
	// origin-link offload). With no edge tier both early passes are empty
	// and the enumeration order is exactly the pre-tier one.
	for _, rep := range replicas {
		// A prefix replica cannot answer a query alone: it anchors split
		// plans pairing the edge prefix with a full tail replica instead.
		if !rep.Full() {
			e.splitPlans(rep, replicas)
		}
	}
	full := make([]*metadata.Replica, 0, len(replicas))
	for _, rep := range replicas {
		if rep.Full() && edge[rep.Site] {
			full = append(full, rep)
		}
	}
	for _, rep := range replicas {
		if rep.Full() && !edge[rep.Site] {
			full = append(full, rep)
		}
	}
	for _, rep := range full { // set A1
		// Rule: a replica below the required minimum resolution can never
		// satisfy the query — transcoding cannot upscale (§3.4).
		if req.MinResolution.W > 0 && !rep.Variant.Quality.Resolution.AtLeast(req.MinResolution) {
			continue
		}
		deliverySites := sites
		if len(edge) > 0 {
			deliverySites = make([]string, 0, 1)
			for _, s := range sites {
				if !edge[s] || s == rep.Site {
					deliverySites = append(deliverySites, s)
				}
			}
		}
		own := e.price(rep.Variant.Quality)
		if own.targets == nil {
			own.targets = g.transcodeTargets(rep, req)
		}
		bindings := 0
		for _, target := range own.targets {
			bindings += len(g.farmChoices(target))
		}
		e.reserve(len(deliverySites) * bindings * int(transport.NumDropStrategies) * len(e.encs))
		for _, site := range deliverySites { // set A2
			for _, target := range own.targets { // set A4
				priced := own
				if target != nil {
					priced = e.price(*target)
				}
				for _, farmOff := range g.farmChoices(target) { // stage binding
					for drop := range transport.NumDropStrategies { // set A3
						for _, enc := range e.encs { // set A5
							e.build(rep, site, priced, target, drop, enc, farmOff)
						}
					}
				}
			}
		}
	}
	return e.out
}

// enumeration is one GenerateAll call's scratch: what does not depend on
// the candidate, worked out once, and the slabs plans are cut from. It is
// per call, not a field of media.Video, because callers copy a Video with
// another Seed.
type enumeration struct {
	g           *Generator
	v           *media.Video
	req         qos.Requirement
	encs        []*cryptoact.Algorithm               // set A5
	frameFactor [transport.NumDropStrategies]float64 // drop.FrameFactor(v.GOP)
	priced      []*pricedQuality
	plans       []Plan  // the current slab chunk
	stages      []Stage // three per plan slot of the chunk
	out         []*Plan
}

// pricedQuality is what every candidate delivering one quality shares. The
// key is the whole AppQoS: frame sizes truncate to whole bytes above a
// 64-byte floor, so no price carries over to another bitrate.
type pricedQuality struct {
	quality    qos.AppQoS
	variant    media.Variant
	gopBytes   int64                                // variant.GOPSize(v, 0)
	byteFactor [transport.NumDropStrategies]float64 // drop.ByteFactor(v, variant)
	targets    []*qos.AppQoS                        // transcodeTargets of a replica of this quality
}

// price returns the price of delivered quality q, computing it on first use.
func (e *enumeration) price(q qos.AppQoS) *pricedQuality {
	for _, pq := range e.priced {
		if pq.quality == q {
			return pq
		}
	}
	pq := &pricedQuality{quality: q, variant: media.NewVariant(q)}
	pq.gopBytes = pq.variant.GOPSize(e.v, 0)
	for d := range transport.NumDropStrategies {
		pq.byteFactor[d] = d.ByteFactor(e.v, pq.variant)
	}
	e.priced = append(e.priced, pq)
	return pq
}

// reserve makes room for one replica's n candidates, so a chunk wastes at
// most the slots of the candidates the static rules prune.
func (e *enumeration) reserve(n int) {
	if cap(e.plans)-len(e.plans) < n {
		e.plans = make([]Plan, 0, n)
		e.stages = make([]Stage, 3*n)
	}
}

// slot cuts the next plan and its stage window from the slabs; the window's
// capacity ends where the next plan's begins, so appending a split plan's
// tail leg never writes into a neighbour's stages.
func (e *enumeration) slot() (*Plan, []Stage) {
	i := len(e.plans)
	e.plans = e.plans[:i+1]
	return &e.plans[i], e.stages[3*i : 3*i : 3*i+3]
}

// splitPlans enumerates the two-leg plans a prefix replica anchors: the
// prefix streams from its edge site while a same-quality full replica at
// another site stands by to stream the tail from the GOP-aligned handover
// boundary onward. Both legs are priced and reserved; transcoding is
// excluded (the legs must deliver the same coded variant for a seamless
// handover) while dropping and encryption apply to both legs alike.
func (e *enumeration) splitPlans(prefix *metadata.Replica, replicas []*metadata.Replica) {
	if e.req.MinResolution.W > 0 && !prefix.Variant.Quality.Resolution.AtLeast(e.req.MinResolution) {
		return
	}
	split := prefix.PrefixFrames(e.v)
	if split <= 0 || split >= e.v.Frames() {
		return
	}
	for _, tail := range replicas {
		if !tail.Full() || tail.Site == prefix.Site || tail.Variant.Quality != prefix.Variant.Quality {
			continue
		}
		priced := e.price(prefix.Variant.Quality)
		e.reserve(int(transport.NumDropStrategies) * len(e.encs))
		for drop := range transport.NumDropStrategies { // set A3
			for _, enc := range e.encs { // set A5
				p := e.build(prefix, prefix.Site, priced, nil, drop, enc, false)
				if p == nil {
					continue
				}
				p.TailReplica = tail
				p.SplitFrame = split
				// The prefix leg is local and untranscoded, so deliver is its
				// only stage and the tail leg lands second, in the prefix.
				tailVec := p.Stages[deliverStage].Vec
				tailVec[qos.ResDiskBandwidth] = tail.Variant.Bitrate
				p.Stages = append(p.Stages, Stage{
					Kind: StageTailDeliver, Site: tail.Site, Suffix: "-tail", Vec: tailVec,
				})
				p.reserved++
			}
		}
	}
}

// transcodeTargets returns nil (no transcode) plus each ladder quality the
// replica can be transcoded down to that could still satisfy the query.
func (g *Generator) transcodeTargets(rep *metadata.Replica, req qos.Requirement) []*qos.AppQoS {
	targets := []*qos.AppQoS{nil}
	for _, q := range media.StandardLadder(rep.Variant.Quality.FrameRate) {
		if transcode.Validate(rep.Variant.Quality, q) != nil {
			continue
		}
		if req.MinResolution.W > 0 && !q.Resolution.AtLeast(req.MinResolution) {
			continue
		}
		targets = append(targets, &q)
	}
	return targets
}

// farmChoices enumerates the transcode stage's binding: inline on the
// delivery CPU always, plus the farm tier when a farm is bound and the
// candidate actually transcodes. Without a farm this is the single legacy
// choice, so plan counts and order are untouched.
func (g *Generator) farmChoices(target *qos.AppQoS) []bool {
	if !g.farm || target == nil {
		return []bool{false}
	}
	return []bool{false, true}
}

// encryptionChoices applies the security rule: queries without a security
// requirement never get an encryption activity (it would waste CPU for no
// QoS gain); queries demanding security get every algorithm at or above
// the level.
func (g *Generator) encryptionChoices(req qos.Requirement) []*cryptoact.Algorithm {
	if req.Security == qos.SecurityNone {
		return []*cryptoact.Algorithm{nil}
	}
	algs := cryptoact.ForLevel(req.Security)
	out := make([]*cryptoact.Algorithm, len(algs))
	for i := range algs {
		out[i] = &algs[i]
	}
	return out
}

// build assembles and costs one candidate plan and appends it to the
// output, returning nil when a static rule rejects it — before it takes a
// slab slot, so a pruned candidate allocates nothing. farmOff moves the
// transcode stage's CPU off the delivery site onto the farm tier.
func (e *enumeration) build(rep *metadata.Replica, site string, priced *pricedQuality,
	target *qos.AppQoS, drop transport.DropStrategy, enc *cryptoact.Algorithm, farmOff bool) *Plan {

	delivered := priced.quality
	netRate := priced.variant.Bitrate * priced.byteFactor[drop]

	cpu := transport.StreamCPUCost(priced.variant, delivered.FrameRate)
	var extraPerSecond, transcodeCost float64
	if target != nil {
		transcodeCost = transcode.CPUCost(rep.Variant.Quality, *target)
		if !farmOff {
			// Inline transcode: the conversion rides the delivery CPU and
			// is submitted with each frame. Offloaded, it is the farm
			// stage's demand instead and costs the delivery site nothing.
			extraPerSecond += transcodeCost
		}
	}
	if enc != nil {
		// Encryption follows frame dropping (§3.4), so it costs CPU only
		// for the bytes that survive the drop.
		extraPerSecond += enc.CPUCost(netRate)
		delivered.Security = enc.Level
	}
	cpu += extraPerSecond

	// drop.EffectiveFrameRate(v.GOP, fps), its frame factor worked out once.
	effFPS := delivered.FrameRate * e.frameFactor[drop]
	deliveredEff := delivered
	deliveredEff.FrameRate = effFPS
	if !e.req.SatisfiedBy(deliveredEff) {
		return nil
	}

	var deliveryDemand qos.ResourceVector
	deliveryDemand[qos.ResCPU] = cpu
	deliveryDemand[qos.ResNetBandwidth] = netRate
	deliveryDemand[qos.ResMemory] = 2 * float64(priced.gopBytes)

	var sourceDemand qos.ResourceVector
	if rep.Site != site {
		sourceDemand[qos.ResDiskBandwidth] = rep.Variant.Bitrate
		sourceDemand[qos.ResNetBandwidth] = rep.Variant.Bitrate
		sourceDemand[qos.ResCPU] = 0.5 * transport.StreamCPUCost(rep.Variant, rep.Variant.Quality.FrameRate)
	} else {
		deliveryDemand[qos.ResDiskBandwidth] = rep.Variant.Bitrate
	}

	// Static plan-drop rule: demands no empty site could ever admit. The
	// farm stage is exempt — its capacity is the farm's own MaxWorkers
	// envelope, not the site capacity, and admission prices it dynamically.
	if cap := e.g.capacity; cap != (qos.ResourceVector{}) {
		var zero qos.ResourceVector
		if !deliveryDemand.FitsWithin(zero, cap) || !sourceDemand.FitsWithin(zero, cap) {
			return nil
		}
	}

	var extraPerFrame simtime.Time
	if effFPS > 0 {
		extraPerFrame = simtime.Time(float64(simtime.Seconds(1)) * extraPerSecond / effFPS)
	}
	p, stages := e.slot()
	// Stages in reservation order, resource-holding ones first.
	stages = append(stages, Stage{Kind: StageDeliver, Site: site, Vec: deliveryDemand})
	if rep.Site != site {
		stages = append(stages, Stage{Kind: StageSource, Site: rep.Site, Suffix: "-relay", Vec: sourceDemand})
	}
	reserved := len(stages)
	if target != nil {
		st := Stage{Kind: StageTranscode, Site: site, Work: transcodeCost}
		if farmOff {
			st.Site = FarmSite
			st.Suffix = "-transcode"
			st.Vec[qos.ResCPU] = transcodeCost
			reserved++
		}
		stages = append(stages, st)
	}
	*p = Plan{
		Replica:          rep,
		DeliverySite:     site,
		Drop:             drop,
		Transcode:        target,
		Encrypt:          enc,
		Delivered:        deliveredEff,
		DeliveredVariant: priced.variant,
		ExtraPerFrameCPU: extraPerFrame,
		Stages:           stages,
		reserved:         reserved,
	}
	e.out = append(e.out, p)
	return p
}
