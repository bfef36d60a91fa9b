package transcode

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"quasaq/internal/media"
	"quasaq/internal/mpeg"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
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

func TestPerFrameService(t *testing.T) {
	s := PerFrameService(dvd, cif)
	total := simtime.Time(float64(s) * cif.FrameRate)
	wholeSecond := simtime.Seconds(CPUCost(dvd, cif))
	diff := total - wholeSecond
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("per-frame service %v x fps != per-second cost (%v vs %v)", s, total, wholeSecond)
	}
}

func clipVideo() *media.Video {
	return &media.Video{
		ID: 1, Title: "clip", Duration: simtime.Seconds(3), FrameRate: 24,
		GOP: media.DefaultGOP(), Seed: 5,
	}
}

func TestBytesPreservesFrameCountAtSameRate(t *testing.T) {
	v := clipVideo()
	srcQ := dvd
	srcQ.FrameRate = 24
	dstQ := cif
	dstQ.FrameRate = 24
	var in, out bytes.Buffer
	if err := mpeg.Encode(&in, v, media.NewVariant(srcQ), 0); err != nil {
		t.Fatal(err)
	}
	inLen := in.Len()
	if err := Bytes(v, &in, &out, dstQ); err != nil {
		t.Fatal(err)
	}
	p, err := mpeg.NewParser(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("transcoded stream corrupt: %v", err)
	}
	if p.Info().Quality != dstQ {
		t.Fatalf("output quality = %v, want %v", p.Info().Quality, dstQ)
	}
	counts, err := mpeg.CountFrames(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	total := counts[media.FrameI] + counts[media.FrameP] + counts[media.FrameB]
	if total != v.Frames() {
		t.Fatalf("frames = %d, want %d", total, v.Frames())
	}
	if out.Len() >= inLen {
		t.Fatalf("downscale did not shrink the stream: %d -> %d", inLen, out.Len())
	}
}

func TestBytesFrameRateReduction(t *testing.T) {
	v := clipVideo()
	srcQ := dvd
	srcQ.FrameRate = 24
	dstQ := cif
	dstQ.FrameRate = 12
	var in, out bytes.Buffer
	if err := mpeg.Encode(&in, v, media.NewVariant(srcQ), 0); err != nil {
		t.Fatal(err)
	}
	if err := Bytes(v, &in, &out, dstQ); err != nil {
		t.Fatal(err)
	}
	counts, err := mpeg.CountFrames(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	total := counts[media.FrameI] + counts[media.FrameP] + counts[media.FrameB]
	want := v.Frames() / 2
	if total < want-2 || total > want+2 {
		t.Fatalf("frames after 24->12 fps = %d, want ~%d", total, want)
	}
}

func TestBytesRejectsInvalidConversion(t *testing.T) {
	v := clipVideo()
	srcQ := cif
	srcQ.FrameRate = 24
	dstQ := dvd
	dstQ.FrameRate = 24
	var in, out bytes.Buffer
	if err := mpeg.Encode(&in, v, media.NewVariant(srcQ), 0); err != nil {
		t.Fatal(err)
	}
	if err := Bytes(v, &in, &out, dstQ); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}
