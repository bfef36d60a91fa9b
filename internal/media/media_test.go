package media

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

func sampleVideo() *Video {
	return &Video{
		ID:        1,
		Title:     "sample",
		Duration:  simtime.Seconds(60),
		FrameRate: 23.97,
		GOP:       DefaultGOP(),
		Seed:      12345,
	}
}

func TestFrameIntervalMatchesPaper(t *testing.T) {
	v := sampleVideo()
	// The paper's sample video: 1/23.97 = 41.72 ms.
	got := simtime.ToSeconds(v.FrameInterval()) * 1000
	if math.Abs(got-41.72) > 0.01 {
		t.Fatalf("frame interval = %.3f ms, want 41.72", got)
	}
	gop := simtime.ToSeconds(v.GOPInterval()) * 1000
	if math.Abs(gop-625.78) > 0.1 {
		t.Fatalf("GOP interval = %.2f ms, want ~625.8 (Table 2 range)", gop)
	}
}

func TestGOPPattern(t *testing.T) {
	g := DefaultGOP()
	if g.Len() != 15 {
		t.Fatalf("GOP len = %d, want 15", g.Len())
	}
	if g.Kind(0) != FrameI || g.Kind(15) != FrameI || g.Kind(30) != FrameI {
		t.Fatal("GOP must start with I and repeat every 15")
	}
	nB := 0
	for i := 0; i < 15; i++ {
		if g.Kind(i) == FrameB {
			nB++
		}
	}
	if nB != 10 {
		t.Fatalf("B frames per GOP = %d, want 10", nB)
	}
}

func TestFramesCount(t *testing.T) {
	v := sampleVideo()
	want := int(math.Round(60 * 23.97))
	if v.Frames() != want {
		t.Fatalf("frames = %d, want %d", v.Frames(), want)
	}
}

func TestNominalBitrateCalibration(t *testing.T) {
	// VCD-class MPEG-1 should land near its standard 1.15 Mb/s.
	q := qos.AppQoS{Resolution: qos.Resolution{W: 352, H: 240}, ColorDepth: 24, FrameRate: 29.97, Format: qos.FormatMPEG1}
	bits := NominalBitrate(q) * 8
	if bits < 1.0e6 || bits > 1.3e6 {
		t.Fatalf("VCD bitrate = %.0f b/s, want ~1.15e6", bits)
	}
}

func TestNominalBitrateMonotone(t *testing.T) {
	base := qos.AppQoS{Resolution: qos.ResCIF, ColorDepth: 24, FrameRate: 24, Format: qos.FormatMPEG1}
	bigger := base
	bigger.Resolution = qos.ResDVD
	if NominalBitrate(bigger) <= NominalBitrate(base) {
		t.Fatal("bitrate not monotone in resolution")
	}
	shallow := base
	shallow.ColorDepth = 8
	if NominalBitrate(shallow) >= NominalBitrate(base) {
		t.Fatal("bitrate not monotone in color depth")
	}
	slower := base
	slower.FrameRate = 10
	if NominalBitrate(slower) >= NominalBitrate(base) {
		t.Fatal("bitrate not monotone in frame rate")
	}
	mjpeg := base
	mjpeg.Format = qos.FormatMJPEG
	if NominalBitrate(mjpeg) <= NominalBitrate(base) {
		t.Fatal("MJPEG should cost more bits than MPEG-1")
	}
}

func TestFrameSizesPreserveBitrate(t *testing.T) {
	v := sampleVideo()
	va := NewVariant(qos.AppQoS{Resolution: qos.ResCIF, ColorDepth: 24, FrameRate: 23.97, Format: qos.FormatMPEG1})
	var total float64
	n := v.Frames()
	for i := 0; i < n; i++ {
		total += float64(va.FrameSize(v, i))
	}
	gotRate := total / simtime.ToSeconds(v.Duration)
	if math.Abs(gotRate-va.Bitrate)/va.Bitrate > 0.05 {
		t.Fatalf("realized bitrate %.0f B/s deviates >5%% from nominal %.0f", gotRate, va.Bitrate)
	}
}

func TestFrameSizesFollowGOPStructure(t *testing.T) {
	v := sampleVideo()
	va := NewVariant(LadderQuality(LinkT1, v.FrameRate))
	var iSum, bSum float64
	var iN, bN int
	for i := 0; i < 300; i++ {
		switch v.GOP.Kind(i) {
		case FrameI:
			iSum += float64(va.FrameSize(v, i))
			iN++
		case FrameB:
			bSum += float64(va.FrameSize(v, i))
			bN++
		}
	}
	ratio := (iSum / float64(iN)) / (bSum / float64(bN))
	if ratio < 5 || ratio > 20 {
		t.Fatalf("I/B mean size ratio = %.1f, want around 11 (5.0/0.45)", ratio)
	}
}

func TestFrameSizeDeterministicRandomAccess(t *testing.T) {
	v := sampleVideo()
	va := NewVariant(LadderQuality(LinkLAN, v.FrameRate))
	a := va.FrameSize(v, 500)
	for i := 0; i < 10; i++ {
		va.FrameSize(v, i*37) // interleave other accesses
	}
	if va.FrameSize(v, 500) != a {
		t.Fatal("FrameSize not a pure function of (video, variant, index)")
	}
}

func TestFrameSizeNeverTiny(t *testing.T) {
	v := sampleVideo()
	va := NewVariant(LadderQuality(LinkModem, 10))
	if err := quick.Check(func(i uint16) bool {
		return va.FrameSize(v, int(i)%v.Frames()) >= 64
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGOPSize(t *testing.T) {
	v := sampleVideo()
	va := NewVariant(LadderQuality(LinkT1, v.FrameRate))
	var manual int64
	for i := 15; i < 30; i++ {
		manual += int64(va.FrameSize(v, i))
	}
	if got := va.GOPSize(v, 15); got != manual {
		t.Fatalf("GOPSize = %d, want %d", got, manual)
	}
	// Tail GOP is clipped at the video end.
	last := v.Frames() - 3
	tail := va.GOPSize(v, last)
	var manualTail int64
	for i := last; i < v.Frames(); i++ {
		manualTail += int64(va.FrameSize(v, i))
	}
	if tail != manualTail {
		t.Fatalf("tail GOPSize = %d, want %d", tail, manualTail)
	}
}

func TestVariantSize(t *testing.T) {
	v := sampleVideo()
	va := NewVariant(LadderQuality(LinkT1, v.FrameRate))
	want := int64(va.Bitrate * 60)
	if got := va.SizeBytes(v); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestLadderFitsLinkClasses(t *testing.T) {
	// Nominal capacity of each class in bytes per second, as documented on
	// the LinkClass constants.
	bandwidth := map[LinkClass]float64{LinkT1: 193e3, LinkDSL: 96e3, LinkModem: 7e3}
	for _, c := range []LinkClass{LinkT1, LinkDSL, LinkModem} {
		q := LadderQuality(c, 23.97)
		if err := q.Validate(); err != nil {
			t.Fatalf("%v ladder quality invalid: %v", c, err)
		}
		if br := NominalBitrate(q); br > bandwidth[c] {
			t.Errorf("%v tier bitrate %.0f exceeds class bandwidth %.0f", c, br, bandwidth[c])
		}
	}
}

func TestLadderStrictlyDecreasing(t *testing.T) {
	ladder := StandardLadder(23.97)
	if len(ladder) != 4 {
		t.Fatalf("ladder size = %d, want 4 (three-to-four replicas per video)", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		if NominalBitrate(ladder[i]) >= NominalBitrate(ladder[i-1]) {
			t.Fatalf("ladder not decreasing at %d", i)
		}
	}
}

func TestStandardCorpusShape(t *testing.T) {
	vs := StandardCorpus(42)
	if len(vs) != 15 {
		t.Fatalf("corpus size = %d, want 15 (paper §5)", len(vs))
	}
	minD, maxD := vs[0].Duration, vs[0].Duration
	ids := map[VideoID]bool{}
	for _, v := range vs {
		if ids[v.ID] {
			t.Fatalf("duplicate video id %v", v.ID)
		}
		ids[v.ID] = true
		if v.Duration < minD {
			minD = v.Duration
		}
		if v.Duration > maxD {
			maxD = v.Duration
		}
		if len(v.Tags) == 0 {
			t.Errorf("%v has no tags", v.ID)
		}
		if v.Frames() <= 0 {
			t.Errorf("%v has no frames", v.ID)
		}
	}
	if minD != 30*time.Second || maxD != 18*time.Minute {
		t.Fatalf("duration range [%v, %v], want [30s, 18m]", minD, maxD)
	}
}

func TestStandardCorpusDeterministic(t *testing.T) {
	a := StandardCorpus(7)
	b := StandardCorpus(7)
	c := StandardCorpus(8)
	if a[3].Seed != b[3].Seed {
		t.Fatal("same base seed must give same corpus")
	}
	if a[3].Seed == c[3].Seed {
		t.Fatal("different base seeds should give different corpora")
	}
}

func TestFeatures(t *testing.T) {
	vs := StandardCorpus(42)
	f := vs[0].Features()
	if len(f) != FeatureDim {
		t.Fatalf("feature dim = %d, want %d", len(f), FeatureDim)
	}
	for _, x := range f {
		if x < 0 || x >= 1 {
			t.Fatalf("feature %v out of [0,1)", x)
		}
	}
	g := vs[0].Features()
	for i := range f {
		if f[i] != g[i] {
			t.Fatal("features not deterministic")
		}
	}
	h := vs[1].Features()
	same := true
	for i := range f {
		if f[i] != h[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct videos share feature vectors")
	}
}

func TestFrameKindString(t *testing.T) {
	if FrameI.String() != "I" || FrameP.String() != "P" || FrameB.String() != "B" {
		t.Fatal("FrameKind names wrong")
	}
}
