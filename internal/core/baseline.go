package core

import (
	"fmt"

	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
)

// The §5.2 comparison systems. Both serve the original (full-quality)
// replica from the site that received the query — neither exploits the
// QoS-specific replication ladder or the quality manager's plan choice:
//
//   - VDBMS: the unmodified system. No admission control, no reservation;
//     every query starts a best-effort session immediately.
//   - VDBMS+QoS API: VDBMS with the composite QoS APIs bolted on — the
//     paper introduces it "to avoid an unfair comparison": sessions are
//     admitted and reserved (so their quality matches QuaSAQ's), but
//     without replica choice, transcoding, frame dropping or load
//     balancing.

// originalReplica returns the highest-bitrate replica of the video at the
// site, or an error when the site has none.
func (c *Cluster) originalReplica(site string, id media.VideoID) (*metadata.Replica, error) {
	var best *metadata.Replica
	for _, r := range c.Dir.Lookup(site, id) {
		if r.Site != site {
			continue
		}
		if best == nil || r.Variant.Bitrate > best.Variant.Bitrate {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no replica of %s at %s", id, site)
	}
	return best, nil
}

// VDBMSService is the original-VDBMS delivery path.
type VDBMSService struct {
	cluster *Cluster
}

// NewVDBMSService creates the no-QoS baseline.
func NewVDBMSService(c *Cluster) *VDBMSService { return &VDBMSService{cluster: c} }

// Service streams the original replica best-effort from the query site.
// Nothing is ever rejected: "all video jobs were admitted" (§5.2).
func (b *VDBMSService) Service(querySite string, id media.VideoID, traceFrames int, onDone func(*transport.Session)) (*transport.Session, error) {
	v, err := b.cluster.Engine.Video(id)
	if err != nil {
		return nil, err
	}
	rep, err := b.cluster.originalReplica(querySite, id)
	if err != nil {
		return nil, err
	}
	node, err := b.cluster.Node(querySite)
	if err != nil {
		return nil, err
	}
	cfg := transport.Config{Video: v, Variant: rep.Variant, TraceFrames: traceFrames}
	sess, err := transport.StartBestEffort(b.cluster.Sim, node, cfg, func(s *transport.Session) {
		b.cluster.sessionEnded()
		if onDone != nil {
			onDone(s)
		}
	})
	if err != nil {
		return nil, err
	}
	b.cluster.sessionStarted()
	return sess, nil
}

// QoSAPIService is the "VDBMS enhanced with QoS APIs" baseline.
type QoSAPIService struct {
	cluster *Cluster
}

// NewQoSAPIService creates the admission+reservation baseline.
func NewQoSAPIService(c *Cluster) *QoSAPIService { return &QoSAPIService{cluster: c} }

// Service reserves the full original-quality profile at the query site and
// streams with those guarantees, or rejects the query.
func (b *QoSAPIService) Service(querySite string, id media.VideoID, traceFrames int, onDone func(*transport.Session)) (*transport.Session, error) {
	v, err := b.cluster.Engine.Video(id)
	if err != nil {
		return nil, err
	}
	rep, err := b.cluster.originalReplica(querySite, id)
	if err != nil {
		return nil, err
	}
	node, err := b.cluster.Node(querySite)
	if err != nil {
		return nil, err
	}
	demand := rep.Profile
	if demand == (qos.ResourceVector{}) {
		demand[qos.ResCPU] = transport.StreamCPUCost(rep.Variant, rep.Variant.Quality.FrameRate)
		demand[qos.ResNetBandwidth] = rep.Variant.Bitrate
		demand[qos.ResDiskBandwidth] = rep.Variant.Bitrate
	}
	period := simtime.Seconds(1 / rep.Variant.Quality.FrameRate)
	lease, err := node.Reserve(v.Title, demand, period)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRejected, err)
	}
	cfg := transport.Config{Video: v, Variant: rep.Variant, TraceFrames: traceFrames}
	sess, err := transport.StartReserved(b.cluster.Sim, node, cfg, lease, func(s *transport.Session) {
		b.cluster.sessionEnded()
		if onDone != nil {
			onDone(s)
		}
	})
	if err != nil {
		lease.Release()
		return nil, err
	}
	b.cluster.sessionStarted()
	return sess, nil
}
