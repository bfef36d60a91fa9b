package transcode

import (
	"errors"
	"testing"

	"quasaq/internal/media"
	"quasaq/internal/qos"
)

var (
	dvd = qos.AppQoS{Resolution: qos.ResDVD, ColorDepth: 24, FrameRate: 23.97, Format: qos.FormatMPEG1}
	cif = qos.AppQoS{Resolution: qos.ResCIF, ColorDepth: 24, FrameRate: 23.97, Format: qos.FormatMPEG1}
)

func TestValidateDownscaleOK(t *testing.T) {
	if err := Validate(dvd, cif); err != nil {
		t.Fatalf("downscale rejected: %v", err)
	}
	toMPEG2 := dvd
	toMPEG2.Format = qos.FormatMPEG2
	if err := Validate(dvd, toMPEG2); err != nil {
		t.Fatalf("format-only conversion rejected: %v", err)
	}
}

func TestValidateRejectsUpscale(t *testing.T) {
	if err := Validate(cif, dvd); !errors.Is(err, ErrInvalid) {
		t.Fatalf("upscale err = %v", err)
	}
	deeper := dvd
	deeper.ColorDepth = 24
	shallow := dvd
	shallow.ColorDepth = 8
	if err := Validate(shallow, deeper); !errors.Is(err, ErrInvalid) {
		t.Fatal("color deepening accepted")
	}
	faster := dvd
	faster.FrameRate = 30
	if err := Validate(dvd, faster); !errors.Is(err, ErrInvalid) {
		t.Fatal("frame-rate raise accepted")
	}
}

func TestValidateRejectsIdentity(t *testing.T) {
	if err := Validate(dvd, dvd); !errors.Is(err, ErrInvalid) {
		t.Fatal("identity conversion accepted")
	}
}

func TestValidateRejectsInvalidEndpoints(t *testing.T) {
	if err := Validate(qos.AppQoS{}, dvd); !errors.Is(err, ErrInvalid) {
		t.Fatal("invalid source accepted")
	}
	if err := Validate(dvd, qos.AppQoS{}); !errors.Is(err, ErrInvalid) {
		t.Fatal("invalid target accepted")
	}
}

func TestCPUCostScale(t *testing.T) {
	c := CPUCost(dvd, cif)
	if c <= 0 || c >= 1 {
		t.Fatalf("DVD->CIF cost = %v, want a real fraction of one CPU", c)
	}
	// A bigger source must cost at least as much as a smaller one.
	if CPUCost(dvd, cif) <= CPUCost(cif, media.LadderQuality(media.LinkModem, 10)) {
		t.Fatal("cost not monotone in stream sizes")
	}
}
