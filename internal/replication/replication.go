// Package replication implements QuaSAQ's offline components (§3.1): for
// each video inserted into the database it materializes quality-laddered
// replicas on the cluster's sites (the paper generated three to four copies
// per video with VideoMach, fitted to T1/DSL/modem bitrates, fully
// replicated on all three servers) and runs the QoS sampler that measures
// each replica's QoS profile — the per-delivery resource vector the cost
// model consumes.
package replication

import (
	"fmt"

	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/qos"
	"quasaq/internal/storage"
	"quasaq/internal/transport"
)

// Policy selects which ladder tiers are materialized where.
type Policy struct {
	// Tiers lists the link classes to fit replicas to, best first. The
	// default is the paper's full ladder (original + T1 + DSL + modem).
	Tiers []media.LinkClass
	// FullReplication stores every tier at every site (the paper's §5
	// setup). When false, the original lands only on the video's home site
	// (round-robin across sites) and lower tiers everywhere.
	FullReplication bool
}

// DefaultPolicy returns the experimental setup of §5.
func DefaultPolicy() Policy {
	return Policy{
		Tiers:           []media.LinkClass{media.LinkLAN, media.LinkT1, media.LinkDSL, media.LinkModem},
		FullReplication: true,
	}
}

// SingleCopyPolicy stores only the original at the video's home site: the
// no-replication ablation isolating QoS-specific replication's
// contribution.
func SingleCopyPolicy() Policy {
	return Policy{Tiers: []media.LinkClass{media.LinkLAN}, FullReplication: false}
}

// Site couples a site name with its blob store.
type Site struct {
	Name  string
	Blobs *storage.BlobStore
}

// Replicate materializes replicas of the given videos per policy,
// registering each in the directory with its sampled QoS profile. It
// returns the total bytes stored (the replication storage-space concern of
// §2 item 1).
func Replicate(videos []*media.Video, sites []Site, dir *metadata.Directory, pol Policy) (int64, error) {
	if len(sites) == 0 {
		return 0, fmt.Errorf("replication: no sites")
	}
	if len(pol.Tiers) == 0 {
		return 0, fmt.Errorf("replication: empty tier list")
	}
	stores := make(map[string]*metadata.Store, len(sites))
	for _, s := range sites {
		st, err := dir.Store(s.Name)
		if err != nil {
			st = metadata.NewStore(s.Name)
			if err := dir.AddStore(st); err != nil {
				return 0, err
			}
		}
		stores[s.Name] = st
	}
	var total int64
	for vi, v := range videos {
		home := vi % len(sites)
		for _, tier := range pol.Tiers {
			q := media.LadderQuality(tier, v.FrameRate)
			va := media.NewVariant(q)
			for si, site := range sites {
				if !pol.FullReplication && tier == media.LinkLAN && si != home {
					continue
				}
				size := va.SizeBytes(v)
				blob, err := site.Blobs.Create(size)
				if err != nil {
					return total, fmt.Errorf("replication: %s tier %v at %s: %w", v.ID, tier, site.Name, err)
				}
				rep := &metadata.Replica{
					Video:   v.ID,
					Site:    site.Name,
					Variant: va,
					Blob:    blob.ID,
					Profile: SampleProfile(v, va),
				}
				if err := stores[site.Name].Add(rep); err != nil {
					return total, err
				}
				total += size
			}
		}
		dir.Invalidate(v.ID)
	}
	return total, nil
}

// SampleProfile is the QoS sampler (§3.1, §3.3 "QoS profile"): it measures
// the resource vector of delivering one plain (no transcode, no encryption,
// no dropping) stream of the replica. The original prototype obtained these
// by static QoS mapping runs; here the calibrated cost models provide the
// same numbers deterministically.
func SampleProfile(v *media.Video, va media.Variant) qos.ResourceVector {
	var p qos.ResourceVector
	p[qos.ResCPU] = transport.StreamCPUCost(va, va.Quality.FrameRate)
	p[qos.ResNetBandwidth] = va.Bitrate
	p[qos.ResDiskBandwidth] = va.Bitrate
	// Buffering: double-buffered GOPs at the server side.
	p[qos.ResMemory] = 2 * float64(va.GOPSize(v, 0))
	return p
}
