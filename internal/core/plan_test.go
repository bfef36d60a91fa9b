package core

import (
	"math"
	"slices"
	"testing"

	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/qop"
	"quasaq/internal/qos"
	"quasaq/internal/workload"
)

// TestEnumerationPricingIdentity: the per-enumeration pricing table is a
// cache, not a model. In the flat, farm and edge worlds, for every video,
// the four paper tiers and a security requirement, each plan's delivered
// variant, network and memory demand and delivered frame rate are bit for
// bit what the media and transport functions give for that plan alone.
// Frame sizes truncate to whole bytes above a 64-byte floor, so a drop
// strategy's byte factor depends on the bitrate and cannot be shared
// between qualities. Every world also holds an MPEG-2 twin of each video's
// LAN replica, equal to it in every field but Format, so a table key that
// dropped a field would hand one quality the other's price.
func TestEnumerationPricingIdentity(t *testing.T) {
	profile := qop.DefaultProfile("pricing")
	var reqs []qos.Requirement
	for _, tier := range workload.Tiers() {
		reqs = append(reqs, profile.Translate(tier))
	}
	reqs = append(reqs, qos.Requirement{Security: qos.SecurityStandard})
	for _, w := range stageWorlds {
		t.Run(w.name, func(t *testing.T) {
			_, m, _ := w.build(t)
			videos := m.cluster.Engine.All()
			store, err := m.cluster.Dir.Store("srv-a")
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range videos {
				q := media.LadderQuality(media.LinkLAN, v.FrameRate)
				q.Format = qos.FormatMPEG2
				if err := store.Add(&metadata.Replica{Video: v.ID, Site: "srv-a", Variant: media.NewVariant(q)}); err != nil {
					t.Fatal(err)
				}
			}
			var plans, split, twins int
			for _, v := range videos {
				for _, req := range reqs {
					set := m.Generator().GenerateAll("srv-a", v, req)
					for _, p := range set {
						plans++
						if p.Split() {
							split++
						}
						if p.Replica.Variant.Quality.Format == qos.FormatMPEG2 {
							twins++
						}
						checkPricing(t, v, p)
					}
					checkStageWindows(t, set)
				}
			}
			if plans == 0 || twins == 0 || (w.name == "edge" && split == 0) {
				t.Fatalf("world too small: %d plans, %d off a format twin, %d split", plans, twins, split)
			}
		})
	}
}

// checkPricing compares one plan's priced fields with their direct
// computation, bitwise.
func checkPricing(t *testing.T, v *media.Video, p *Plan) {
	t.Helper()
	q := p.Replica.Variant.Quality
	if p.Transcode != nil {
		q = *p.Transcode
	}
	va := media.NewVariant(q)
	if p.DeliveredVariant != va {
		t.Fatalf("%s: delivered variant %+v, want %+v", p, p.DeliveredVariant, va)
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s = %v, want %v", p, what, got, want)
		}
	}
	deliver := p.Stages[deliverStage].Vec
	same("network demand", deliver[qos.ResNetBandwidth], va.Bitrate*p.Drop.ByteFactor(v, va))
	same("memory demand", deliver[qos.ResMemory], 2*float64(va.GOPSize(v, 0)))
	same("delivered frame rate", p.Delivered.FrameRate, p.Drop.EffectiveFrameRate(v.GOP, q.FrameRate))
}

// checkStageWindows: plans cut from one slab own disjoint stage windows of
// at most three, so appending to one plan's stages changes no other plan.
func checkStageWindows(t *testing.T, plans []*Plan) {
	t.Helper()
	before := make([][]Stage, len(plans))
	for i, p := range plans {
		if cap(p.Stages) > 3 {
			t.Fatalf("%s: stage capacity %d, want <= 3", p, cap(p.Stages))
		}
		before[i] = slices.Clone(p.Stages)
	}
	grown := make([][]Stage, len(plans))
	for i, p := range plans {
		grown[i] = append(p.Stages, Stage{Site: "appended"})
	}
	for i, p := range plans {
		if !slices.Equal(p.Stages, before[i]) {
			t.Fatalf("%s: stages changed by an append to another plan: %v, want %v", p, p.Stages, before[i])
		}
	}
}
