package qop

import (
	"strings"
	"testing"

	"quasaq/internal/qos"
)

func TestTranslateVCDExample(t *testing.T) {
	// The paper's worked example: "VCD-like spatial resolution" maps to the
	// 320x240 - 352x288 band.
	p := DefaultProfile("u")
	req := p.Translate(QoP{Spatial: SpatialVCD})
	if req.MinResolution != qos.ResVCD || req.MaxResolution != qos.ResCIF {
		t.Fatalf("VCD band = %v..%v", req.MinResolution, req.MaxResolution)
	}
}

func TestTranslateAllLevels(t *testing.T) {
	p := DefaultProfile("u")
	req := p.Translate(QoP{Spatial: SpatialDVD, Temporal: TemporalSmooth, Color: ColorTrue, Security: qos.SecurityStrong})
	if req.MinResolution != qos.ResDVD {
		t.Fatalf("DVD min = %v", req.MinResolution)
	}
	if req.MinFrameRate != 23 || req.MinColorDepth != 24 || req.Security != qos.SecurityStrong {
		t.Fatalf("req = %+v", req)
	}
	loose := p.Translate(QoP{})
	if loose.MinResolution.W != 0 || loose.MinFrameRate != 0 || loose.MinColorDepth != 0 {
		t.Fatalf("any-QoP should translate to an unconstrained requirement: %+v", loose)
	}
}

func TestTranslatePerUserOverride(t *testing.T) {
	p := DefaultProfile("picky")
	p.SpatialBands = map[SpatialLevel][2]qos.Resolution{
		SpatialVCD: {qos.ResCIF, qos.ResSD},
	}
	p.MinFPS = map[TemporalLevel]float64{TemporalStandard: 25}
	req := p.Translate(QoP{Spatial: SpatialVCD, Temporal: TemporalStandard})
	if req.MinResolution != qos.ResCIF {
		t.Fatalf("override ignored: %v", req.MinResolution)
	}
	if req.MinFrameRate != 25 {
		t.Fatalf("fps override ignored: %v", req.MinFrameRate)
	}
	// Unoverridden levels fall back to defaults.
	req2 := p.Translate(QoP{Spatial: SpatialDVD})
	if req2.MinResolution != qos.ResDVD {
		t.Fatalf("default fallback broken: %v", req2.MinResolution)
	}
}

func TestDegradationOrderFollowsWeights(t *testing.T) {
	phys := Physician()
	order := phys.DegradationOrder()
	// Physician: color (3) < temporal (8) < spatial (10).
	if order[0] != DimColor || order[1] != DimTemporal || order[2] != DimSpatial {
		t.Fatalf("physician order = %v", order)
	}
	nurse := Nurse()
	norder := nurse.DegradationOrder()
	// Nurse: temporal (1) = color (1) < spatial (2); tie breaks temporal first.
	if norder[0] != DimTemporal || norder[2] != DimSpatial {
		t.Fatalf("nurse order = %v", norder)
	}
}

func TestDegradePrefersCheapDimension(t *testing.T) {
	phys := Physician()
	q := QoP{Spatial: SpatialDVD, Temporal: TemporalSmooth, Color: ColorTrue}
	d1, ok := phys.Degrade(q)
	if !ok || d1.Color != ColorBasic || d1.Spatial != SpatialDVD {
		t.Fatalf("first degradation = %v", d1)
	}
	d2, _ := phys.Degrade(d1)
	if d2.Color != ColorGray {
		t.Fatalf("second degradation = %v", d2)
	}
	// Color exhausted: temporal next.
	d3, _ := phys.Degrade(d2)
	if d3.Temporal != TemporalStandard {
		t.Fatalf("third degradation = %v", d3)
	}
}

func TestDegradeExhausted(t *testing.T) {
	p := DefaultProfile("u")
	q := QoP{Spatial: SpatialLow, Temporal: TemporalChoppy, Color: ColorGray}
	if _, ok := p.Degrade(q); ok {
		t.Fatal("floor QoP degraded further")
	}
}

func TestAlternativesSecondChance(t *testing.T) {
	p := Nurse()
	alts := p.Alternatives(QoP{Spatial: SpatialDVD, Temporal: TemporalSmooth, Color: ColorTrue}, 4)
	if len(alts) != 4 {
		t.Fatalf("alternatives = %d, want 4", len(alts))
	}
	// Each alternative must be no stricter than the previous on every axis.
	prev := p.Translate(QoP{Spatial: SpatialDVD, Temporal: TemporalSmooth, Color: ColorTrue})
	for i, a := range alts {
		if a.MinFrameRate > prev.MinFrameRate || a.MinColorDepth > prev.MinColorDepth ||
			(a.MinResolution.W > prev.MinResolution.W) {
			t.Fatalf("alternative %d stricter than predecessor", i)
		}
		prev = a
	}
}

func TestAlternativesStopAtFloor(t *testing.T) {
	p := DefaultProfile("u")
	alts := p.Alternatives(QoP{Spatial: SpatialLow, Temporal: TemporalChoppy, Color: ColorGray}, 5)
	if len(alts) != 0 {
		t.Fatalf("floor QoP produced %d alternatives", len(alts))
	}
}

func TestStrings(t *testing.T) {
	q := QoP{Spatial: SpatialVCD, Temporal: TemporalSmooth, Color: ColorTrue, Security: qos.SecurityStrong}
	s := q.String()
	for _, want := range []string{"VCD-like", "smooth", "true-color", "strong"} {
		if !strings.Contains(s, want) {
			t.Errorf("QoP string %q missing %q", s, want)
		}
	}
	if DimSpatial.String() != "spatial" {
		t.Fatal("dimension name wrong")
	}
}
