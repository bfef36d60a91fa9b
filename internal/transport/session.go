package transport

import (
	"fmt"
	"math"

	"quasaq/internal/cpusched"
	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/transcode"
)

// Per-frame streaming CPU cost calibration: packetization, copying and
// syscalls scale with frame bytes, plus a fixed per-frame overhead. At
// these values a DVD-quality stream (~476 KB/s, 24 fps) needs ~2.3% of the
// testbed CPU — consistent with the paper's servers sustaining ~40
// concurrent streams each with degraded-but-moving delivery (Fig 6a), and
// keeping the outbound link (6-7 full-quality streams) the binding
// resource, "the bottlenecking link is always the outband link of the
// servers" (§5). The CPU only binds once plans add transcoding.
const (
	cpuPerByte  = 40.0  // nanoseconds of CPU per streamed byte
	cpuPerFrame = 150e3 // nanoseconds of fixed CPU per frame
)

// StreamCPUCost returns the CPU fraction needed to stream the variant in
// real time (without transcoding or encryption): the CPU entry of a plain
// delivery plan's resource vector.
func StreamCPUCost(va media.Variant, fps float64) float64 {
	perSecond := va.Bitrate*cpuPerByte + fps*cpuPerFrame
	return perSecond / 1e9
}

// frameService returns the CPU service time to process one frame of the
// given size.
func frameService(size int) simtime.Time {
	return simtime.Time(float64(size)*cpuPerByte + cpuPerFrame)
}

// Config describes one streaming session.
type Config struct {
	Video   *media.Video
	Variant media.Variant // quality actually delivered (post-transcode)
	Drop    DropStrategy
	// ExtraPerFrameCPU adds the per-frame cost of online activities the
	// plan attached to this delivery (transcoding, encryption).
	ExtraPerFrameCPU simtime.Time
	// TraceFrames > 0 records the completion times of the first N
	// delivered frames for Figure 5 style analysis.
	TraceFrames int
	// StartFrame begins delivery at the given frame index instead of 0:
	// the resume point of a mid-playback renegotiation.
	StartFrame int
	// EndFrame, when positive, stops delivery at the given frame index
	// instead of the video's end: the prefix leg of a split plan streams
	// [StartFrame, EndFrame) and completes at the handover boundary, where
	// the tail leg resumes with StartFrame = EndFrame. Values at or beyond
	// the video's length mean "stream to the end".
	EndFrame int
	// Trace, when set, receives per-GOP progress instants on the session's
	// trace timeline (nil disables with no cost beyond a nil check).
	Trace *obs.Scope
	// Farm, when set, supplies the session's GOPs from the transcoding
	// tier: each GOP's conversion is submitted just-in-time ahead of its
	// play point (GOP k+1's job while GOP k streams) with the next GOP
	// boundary as its deadline, and a GOP whose job finishes late stalls
	// its release — observable as inter-frame delay the guardian judges.
	// FarmWork is the conversion's cost in CPU-seconds per second of video.
	Farm     *transcode.Farm
	FarmWork float64
}

// shedBacklog is the CPU backlog (queued frame tasks) beyond which a
// best-effort session sheds newly released frames instead of queueing them:
// a congested UDP streamer skips frames it can no longer send on time
// rather than growing an unbounded backlog. Reserved sessions never hit
// this in practice because admission control bounds their backlog.
const shedBacklog = 32

// Session is one in-progress media delivery.
type Session struct {
	sim  *simtime.Simulator
	node *gara.Node
	cfg  Config

	lease  *gara.Lease   // nil for best-effort sessions
	cpuJob *cpusched.Job // reserved (from lease) or per-session best-effort
	flow   *netsim.Flow  // nil for reserved sessions

	rate      float64 // pacing rate for the delivered stream, B/s
	gopStart  simtime.Time
	nextFrame int
	pending   int // frames submitted to the CPU, not yet completed
	gopDone   bool
	sends     []int // scheduleGOP's scratch: sizes of the GOP's kept frames

	// Farm staging state: completion times of transcoded GOPs keyed by
	// first-frame index, whether scheduleGOP is parked waiting on one, and
	// the first job's completion latency (the stream's startup delay).
	farmReady    map[int]simtime.Time
	farmParked   bool
	startupDelay simtime.Time
	haveStartup  bool

	started    simtime.Time
	finished   simtime.Time
	done       bool
	cancelled  bool
	failed     bool
	onDone     func(*Session)
	onFail     func(*Session, error)
	trace      stats.Trace
	framesSent int
	bytesSent  int64

	// Per-site registry handles, nil (no-op) on uninstrumented nodes.
	mFramesSent *obs.Counter
	mBytesSent  *obs.Counter
	mShed       *obs.Counter
	mLost       *obs.FloatGauge
	mCompleted  *obs.Counter
	mFailed     *obs.Counter
	mCancelled  *obs.Counter

	// QoS accounting: network loss accrues fractionally per GOP when the
	// achieved link share cannot carry the GOP's bytes in its window (UDP
	// semantics — the paper's streamer pushes at clock pace and the
	// saturated outbound link drops the excess); shed frames are dropped at
	// the server when the CPU backlog exceeds shedBacklog.
	framesLost float64
	framesShed int
	lastDone   simtime.Time
	haveDone   bool
	delayStats stats.Summary // inter-frame delays, milliseconds
	jitterSum  float64       // sum of |delay - ideal| over delay samples, ms
}

// StartReserved begins a session whose resources are held by lease; the
// session streams with the lease's reserved CPU job and paces at the
// lease's reserved network bandwidth.
func StartReserved(sim *simtime.Simulator, node *gara.Node, cfg Config, lease *gara.Lease, onDone func(*Session)) (*Session, error) {
	if lease == nil {
		return nil, fmt.Errorf("transport: reserved session without lease")
	}
	s := newSession(sim, node, cfg, onDone)
	s.lease = lease
	s.cpuJob = lease.CPUJob()
	if s.cpuJob == nil {
		return nil, fmt.Errorf("transport: lease carries no CPU reservation")
	}
	s.rate = lease.Vector()[qos.ResNetBandwidth]
	if s.rate <= 0 {
		return nil, fmt.Errorf("transport: lease carries no network reservation")
	}
	// Failure detection: if the node withdraws the lease mid-stream (node
	// crash, link partition, operator revocation), the session fails and
	// reports the cause through the OnFail hook.
	lease.SetOnRevoke(func(cause error) { s.Fail(cause) })
	s.begin()
	return s, nil
}

// StartBestEffort begins a session with no QoS support: a time-shared CPU
// job and a fair-share flow on the outbound link — the original VDBMS's
// delivery path.
func StartBestEffort(sim *simtime.Simulator, node *gara.Node, cfg Config, onDone func(*Session)) (*Session, error) {
	s := newSession(sim, node, cfg, onDone)
	s.cpuJob = node.CPU().NewBestEffortJob()
	demand := cfg.Variant.Bitrate * cfg.Drop.ByteFactor(cfg.Video, cfg.Variant)
	if demand <= 0 {
		demand = 1
	}
	s.flow = node.Link().Join(demand, nil)
	s.rate = demand
	s.begin()
	return s, nil
}

func newSession(sim *simtime.Simulator, node *gara.Node, cfg Config, onDone func(*Session)) *Session {
	if cfg.Video == nil {
		panic("transport: nil video")
	}
	return &Session{sim: sim, node: node, cfg: cfg, onDone: onDone, started: sim.Now()}
}

// instrument resolves the session's per-site counters from the node's
// registry. Called from begin, after the starter set the lease/flow so the
// mode label is known.
func (s *Session) instrument() {
	reg := s.node.Registry()
	site := s.node.Name()
	mode := "best-effort"
	if s.lease != nil {
		mode = "reserved"
	}
	reg.Counter("transport_sessions_started_total", "site", site, "mode", mode).Inc()
	s.mFramesSent = reg.Counter("transport_frames_sent_total", "site", site)
	s.mBytesSent = reg.Counter("transport_bytes_sent_total", "site", site)
	s.mShed = reg.Counter("transport_frames_shed_total", "site", site)
	s.mLost = reg.FloatGauge("transport_frames_lost", "site", site)
	s.mCompleted = reg.Counter("transport_sessions_completed_total", "site", site)
	s.mFailed = reg.Counter("transport_sessions_failed_total", "site", site)
	s.mCancelled = reg.Counter("transport_sessions_cancelled_total", "site", site)
}

func (s *Session) begin() {
	s.instrument()
	s.gopStart = s.sim.Now()
	if s.cfg.StartFrame > 0 {
		// Resume on a GOP boundary at or before the requested frame, so
		// the stream restarts from an I frame like a real seek would.
		s.nextFrame = s.cfg.StartFrame - s.cfg.StartFrame%s.cfg.Video.GOP.Len()
	}
	if s.cfg.Farm != nil {
		s.farmReady = make(map[int]simtime.Time)
		// The first GOP's conversion gates the first frame: it gets no
		// just-in-time lead, so its deadline is now and its completion
		// latency is the stream's startup delay.
		s.submitFarmGOP(s.nextFrame, s.sim.Now())
	}
	s.scheduleGOP()
}

// submitFarmGOP hands the GOP starting at frame first to the transcoding
// farm, due by deadline. The completion callback records readiness and, if
// the pacer is parked at this GOP's boundary waiting for it, resumes the
// stream.
func (s *Session) submitFarmGOP(first int, deadline simtime.Time) {
	v := s.cfg.Video
	total := s.totalFrames()
	if first >= total {
		return
	}
	last := first + v.GOP.Len()
	if last > total {
		last = total
	}
	videoSeconds := float64(last-first) / v.FrameRate
	s.cfg.Farm.Submit(s.cfg.FarmWork*videoSeconds, deadline, func(at simtime.Time) {
		if !s.haveStartup {
			s.haveStartup = true
			s.startupDelay = at - s.started
		}
		s.farmReady[first] = at
		if s.farmParked {
			s.farmParked = false
			s.scheduleGOP()
		}
	})
}

// StartupDelayMillis returns how long the viewer waited for the first GOP's
// transcode before playback could begin — zero for sessions that do not
// stage GOPs through the farm, and for instant (neutral) farms.
func (s *Session) StartupDelayMillis() float64 {
	return simtime.ToSeconds(s.startupDelay) * 1000
}

// FarmRouted reports whether the session's GOPs are staged through the
// transcoding farm.
func (s *Session) FarmRouted() bool { return s.cfg.Farm != nil }

// Position returns the index of the next frame to be scheduled: the resume
// point for a renegotiation.
func (s *Session) Position() int { return s.nextFrame }

// totalFrames returns the session's effective last frame bound: the
// video's length, capped by EndFrame for the prefix leg of a split plan.
func (s *Session) totalFrames() int {
	total := s.cfg.Video.Frames()
	if s.cfg.EndFrame > 0 && s.cfg.EndFrame < total {
		return s.cfg.EndFrame
	}
	return total
}

// The session seen as the target of its three per-frame events: the next
// GOP's pacing, a frame's release (argument: its size) and that frame's CPU
// completion. Posting a receiver and an integer allocates nothing.
type (
	gopPacer      Session
	frameRelease  Session
	frameComplete Session
)

func (p *gopPacer) HandleEvent(int)          { (*Session)(p).scheduleGOP() }
func (p *frameRelease) HandleEvent(size int) { (*Session)(p).sendFrame(size) }
func (p *frameComplete) HandleEvent(size int) {
	s := (*Session)(p)
	s.frameDone(size, s.sim.Now())
}

// scheduleGOP paces out the kept frames of the GOP beginning at
// s.nextFrame. Frame release times are shaped by coded size within the GOP
// (large I frames occupy a proportionally larger share of the GOP's
// transmission window — the "intrinsic variance" of §5.1), while GOP starts
// advance by the ideal GOP interval, stretched when the achieved network
// rate cannot carry the GOP's bytes in that window.
func (s *Session) scheduleGOP() {
	if s.done {
		return
	}
	v := s.cfg.Video
	total := s.totalFrames()
	if s.nextFrame >= total {
		s.gopDone = true
		s.maybeFinish()
		return
	}
	first := s.nextFrame
	// Staged supply: the GOP cannot be paced out until the farm has
	// transcoded it. A missing job parks the pacer — the job's completion
	// callback re-enters scheduleGOP. A job that finished after the GOP's
	// nominal start shifts this GOP's frame releases by its lateness (a
	// stall the viewer sees as inter-frame delay); the nominal GOP clock is
	// NOT shifted, so an on-time farm catches the stream back up.
	var lateShift simtime.Time
	if s.cfg.Farm != nil {
		ready, ok := s.farmReady[first]
		if !ok {
			s.farmParked = true
			return
		}
		delete(s.farmReady, first)
		if late := ready - s.gopStart; late > 0 {
			lateShift = late
		}
	}
	last := first + v.GOP.Len()
	if last > total {
		last = total
	}
	var keptBytes float64
	if s.sends == nil {
		s.sends = make([]int, 0, last-first)
	}
	sends := s.sends[:0] // sizes of kept frames, in order
	for i := first; i < last; i++ {
		size := s.cfg.Variant.FrameSize(v, i)
		if s.cfg.Drop.Keep(v.GOP, i) {
			sends = append(sends, size)
			keptBytes += float64(size)
		}
	}
	s.sends = sends
	// Window: the ideal GOP interval. The stream is clock-paced (UDP
	// semantics): when the achieved link share cannot carry the kept bytes
	// within the window, the excess is lost, not delayed. Loss applies to
	// best-effort flows always, and to reserved sessions only while link
	// congestion squeezes the achieved rate below the booking — an
	// uncongested reservation covers the stream's mean rate and client-side
	// buffering absorbs VBR excursions around it.
	window := simtime.Time(float64(v.GOPInterval()) * float64(last-first) / float64(v.GOP.Len()))
	if rate := s.currentRate(); rate > 0 && window > 0 && (s.flow != nil || rate < s.rate-1e-9) {
		carriable := rate * simtime.ToSeconds(window)
		if carriable < keptBytes {
			lossFrac := 1 - carriable/keptBytes
			s.framesLost += lossFrac * float64(len(sends))
			s.mLost.Add(lossFrac * float64(len(sends)))
		}
	}
	if s.cfg.Trace.Enabled() {
		s.cfg.Trace.Instant("gop", map[string]any{
			"frame": first, "frames": len(sends), "bytes": int64(keptBytes),
		})
	}
	// Release each kept frame at its byte-proportional position within the
	// window, submitting its CPU work at release time.
	var cum float64
	for _, fsize := range sends {
		frac := 0.0
		if keptBytes > 0 {
			frac = cum / keptBytes
		}
		cum += float64(fsize)
		release := s.gopStart + lateShift + simtime.Time(float64(window)*frac)
		s.pending++
		s.sim.Post(release, (*frameRelease)(s), fsize)
	}
	s.nextFrame = last
	s.gopStart += window
	s.gopDone = false
	// Just-in-time supply: while this GOP streams, the next one's
	// conversion runs on the farm, due by the next nominal boundary.
	if s.cfg.Farm != nil {
		s.submitFarmGOP(last, s.gopStart)
	}
	gopEnd := s.gopStart
	if now := s.sim.Now(); gopEnd < now {
		// A farm stall longer than the GOP window pushed real time past the
		// nominal boundary; resume pacing immediately rather than in the
		// past (the simulator refuses to rewind the clock).
		gopEnd = now
	}
	s.sim.Post(gopEnd, (*gopPacer)(s), 0)
}

func (s *Session) currentRate() float64 {
	if s.flow != nil {
		return s.flow.Rate()
	}
	if s.lease != nil {
		if r := s.lease.NetReservation(); r != nil {
			return r.EffectiveRate()
		}
	}
	return s.rate
}

// sendFrame submits one frame's processing to the CPU scheduler; the
// completion instant is the frame's server-side processing time. A
// best-effort session whose CPU backlog has exceeded the shedding bound
// drops the frame instead.
func (s *Session) sendFrame(size int) {
	if s.done {
		return
	}
	if s.lease == nil && s.cpuJob.Backlog() >= shedBacklog {
		s.framesShed++
		s.mShed.Inc()
		s.pending--
		s.maybeFinish()
		return
	}
	svc := frameService(size) + s.cfg.ExtraPerFrameCPU
	s.cpuJob.Submit(svc, (*frameComplete)(s), size)
}

func (s *Session) frameDone(size int, at simtime.Time) {
	if s.done {
		return
	}
	s.pending--
	s.framesSent++
	s.bytesSent += int64(size)
	s.mFramesSent.Inc()
	s.mBytesSent.Add(uint64(size))
	if s.haveDone {
		d := simtime.ToSeconds(at-s.lastDone) * 1000
		s.delayStats.Add(d)
		if ideal := s.IdealInterFrameMillis(); ideal > 0 {
			s.jitterSum += math.Abs(d - ideal)
		}
	}
	s.haveDone = true
	s.lastDone = at
	if s.cfg.TraceFrames > 0 && s.trace.Len() < s.cfg.TraceFrames {
		s.trace.Add(at, float64(size))
	}
	s.maybeFinish()
}

func (s *Session) maybeFinish() {
	if s.done || !s.gopDone || s.pending > 0 || s.nextFrame < s.totalFrames() {
		return
	}
	s.finish()
}

func (s *Session) finish() {
	if s.done {
		return
	}
	s.done = true
	s.finished = s.sim.Now()
	s.mCompleted.Inc()
	s.releaseResources()
	if s.onDone != nil {
		s.onDone(s)
	}
}

func (s *Session) releaseResources() {
	if s.lease != nil {
		s.lease.Release()
		s.lease = nil
	} else {
		if s.cpuJob != nil {
			s.cpuJob.Finish()
		}
		if s.flow != nil {
			s.flow.Leave()
		}
	}
	s.cpuJob = nil
	s.flow = nil
}

// Cancel aborts the session, releasing resources; onDone never fires.
// Idempotent: cancelling a finished, failed, or already-cancelled session
// is a no-op, so resources are never released twice.
func (s *Session) Cancel() {
	if s.done {
		return
	}
	s.done = true
	s.cancelled = true
	s.finished = s.sim.Now()
	s.mCancelled.Inc()
	s.releaseResources()
}

// SetOnFail registers a callback fired when the session fails mid-stream
// (its lease revoked, or Fail called by the quality manager). It is the
// failure-path counterpart of the completion callback: exactly one of
// onDone / onFail fires, and neither fires after Cancel.
func (s *Session) SetOnFail(fn func(*Session, error)) { s.onFail = fn }

// Fail aborts the session because its resources were lost (as opposed to
// the viewer hanging up, which is Cancel). Resources are released
// (idempotently — a revoked lease has already been reclaimed), onDone never
// fires, and the OnFail hook receives the cause. Idempotent.
func (s *Session) Fail(cause error) {
	if s.done {
		return
	}
	s.done = true
	s.failed = true
	s.finished = s.sim.Now()
	s.mFailed.Inc()
	s.releaseResources()
	if s.onFail != nil {
		s.onFail(s, cause)
	}
}

// Done reports whether the session has finished or been cancelled.
func (s *Session) Done() bool { return s.done }

// Cancelled reports whether the session was aborted.
func (s *Session) Cancelled() bool { return s.cancelled }

// Failed reports whether the session was aborted by a mid-stream fault.
func (s *Session) Failed() bool { return s.failed }

// Finished returns the completion time (zero until done).
func (s *Session) Finished() simtime.Time { return s.finished }

// FramesDelivered returns the number of frames processed so far.
func (s *Session) FramesDelivered() int { return s.framesSent }

// LossRatio returns the fraction of delivered-intended frames that were
// lost or shed.
func (s *Session) LossRatio() float64 {
	total := float64(s.framesSent+s.framesShed) + s.framesLost
	if total <= 0 {
		return 0
	}
	return (s.framesLost + float64(s.framesShed)) / total
}

// DelayStats returns the running summary of inter-frame delays in
// milliseconds (always collected, unlike the bounded trace).
func (s *Session) DelayStats() *stats.Summary { return &s.delayStats }

// ObservedQoS is the per-session observed-QoS surface: delivered frame
// delays, jitter, and loss/shed accounting as cumulative values since the
// session started. It is the one source of truth the guardian and the
// experiments read; windowed rates fall out of differencing two snapshots.
type ObservedQoS struct {
	Frames           int     // frames delivered (server-side completions)
	Delays           int     // inter-frame delay samples collected
	DelaySumMillis   float64 // sum of inter-frame delays, ms
	MeanDelayMillis  float64 // DelaySumMillis / Delays (0 with no samples)
	MaxDelayMillis   float64 // largest inter-frame delay seen, ms
	JitterSumMillis  float64 // sum of |delay - ideal| over samples, ms
	JitterMillis     float64 // mean absolute deviation from ideal delay, ms
	IdealDelayMillis float64 // current ideal inter-frame delay (drop-adjusted)
	FramesLost       float64 // lost to link saturation (fractional, per GOP)
	FramesShed       int     // dropped at the server under CPU backlog
	LossFraction     float64 // (lost+shed) / (delivered+lost+shed)
	Bytes            int64   // cumulative payload bytes delivered
}

// Observed snapshots the session's observed QoS.
func (s *Session) Observed() ObservedQoS {
	o := ObservedQoS{
		Frames:           s.framesSent,
		Delays:           s.delayStats.N(),
		MaxDelayMillis:   s.delayStats.Max(),
		JitterSumMillis:  s.jitterSum,
		IdealDelayMillis: s.IdealInterFrameMillis(),
		FramesLost:       s.framesLost,
		FramesShed:       s.framesShed,
		LossFraction:     s.LossRatio(),
		Bytes:            s.bytesSent,
	}
	if o.Delays > 0 {
		o.MeanDelayMillis = s.delayStats.Mean()
		o.DelaySumMillis = o.MeanDelayMillis * float64(o.Delays)
		o.JitterMillis = s.jitterSum / float64(o.Delays)
	} else {
		o.MaxDelayMillis = 0
	}
	return o
}

// Drop returns the session's current frame-dropping strategy.
func (s *Session) Drop() DropStrategy { return s.cfg.Drop }

// StepDown swaps the frame-dropping strategy mid-stream, effective from the
// next GOP — the guardian's first degradation rung. A best-effort session's
// flow demand is resized to the surviving byte rate; a reserved session
// keeps its booking (the point of dropping is to fit the kept bytes under a
// congestion-squeezed achieved rate). No-op on a finished session.
func (s *Session) StepDown(d DropStrategy) {
	if s.done || d == s.cfg.Drop {
		return
	}
	s.cfg.Drop = d
	if s.flow != nil {
		demand := s.cfg.Variant.Bitrate * d.ByteFactor(s.cfg.Video, s.cfg.Variant)
		if demand <= 0 {
			demand = 1
		}
		s.flow.SetDemand(demand)
	}
}

// IdealInterFrameMillis returns the ideal inter-frame delay of the
// delivered stream — "the reciprocal of the frame rate" (§5) adjusted for
// the drop strategy's frame factor.
func (s *Session) IdealInterFrameMillis() float64 {
	fps := s.cfg.Drop.EffectiveFrameRate(s.cfg.Video.GOP, s.cfg.Video.FrameRate)
	if fps <= 0 {
		return 0
	}
	return 1000 / fps
}

// QoSOK reports whether the finished session met its QoS: bounded loss and
// a mean inter-frame delay near ideal. This is the "succeeded session"
// criterion behind Figure 6b — VDBMS's unmanaged sessions complete, but
// badly enough that they do not count as successes.
func (s *Session) QoSOK() bool {
	if s.LossRatio() > 0.05 {
		return false
	}
	ideal := s.IdealInterFrameMillis()
	if ideal <= 0 || s.delayStats.N() == 0 {
		return true
	}
	return s.delayStats.Mean() <= 1.25*ideal
}

// BytesDelivered returns the payload bytes processed so far.
func (s *Session) BytesDelivered() int64 { return s.bytesSent }

// FrameTrace returns the recorded per-frame completion trace (times are
// absolute virtual times; values are frame sizes).
func (s *Session) FrameTrace() *stats.Trace { return &s.trace }

// InterFrameDelaysMillis derives the Figure 5 series: intervals between
// consecutive processed frames, in milliseconds.
func (s *Session) InterFrameDelaysMillis() []float64 {
	ts := s.trace.Times
	if len(ts) < 2 {
		return nil
	}
	out := make([]float64, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = simtime.ToSeconds(ts[i]-ts[i-1]) * 1000
	}
	return out
}

// InterGOPDelaysMillis aggregates the trace at GOP granularity (Table 2's
// inter-GOP rows): intervals between the first processed frames of
// consecutive GOPs.
func (s *Session) InterGOPDelaysMillis() []float64 {
	gopLen := s.cfg.Video.GOP.Len()
	kept := 0
	for i := 0; i < gopLen; i++ {
		if s.cfg.Drop.Keep(s.cfg.Video.GOP, i) {
			kept++
		}
	}
	if kept == 0 {
		return nil
	}
	ts := s.trace.Times
	var gopTimes []simtime.Time
	for i := 0; i < len(ts); i += kept {
		gopTimes = append(gopTimes, ts[i])
	}
	if len(gopTimes) < 2 {
		return nil
	}
	out := make([]float64, len(gopTimes)-1)
	for i := 1; i < len(gopTimes); i++ {
		out[i-1] = simtime.ToSeconds(gopTimes[i]-gopTimes[i-1]) * 1000
	}
	return out
}
