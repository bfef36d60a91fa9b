package media

import (
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// FeatureDim is the dimensionality of the visual feature vectors attached
// to each video (a compact color-layout descriptor in the original VDBMS;
// a deterministic synthetic vector here). Content-based similarity search
// in the vdbms package operates on these.
const FeatureDim = 16

// Features returns the video's deterministic synthetic visual feature
// vector, components in [0,1). Two videos with nearby seeds are not
// correlated; similarity structure comes only from explicit seed choice in
// test corpora.
func (v *Video) Features() []float64 {
	f := make([]float64, FeatureDim)
	x := v.Seed
	for i := range f {
		x = splitmix64(x)
		f[i] = float64(x>>11) / (1 << 53)
	}
	return f
}

// LinkClass names the network connection classes the paper fitted replica
// bitrates to (§4: "T1, DSL, and modems"), plus the LAN class of the
// original full-quality file.
type LinkClass uint8

// Link classes in decreasing bandwidth order.
const (
	LinkLAN   LinkClass = iota // 100 Mb/s Ethernet, 12.5 MB/s
	LinkT1                     // 1.544 Mb/s, 193 kB/s
	LinkDSL                    // 768 kb/s ADSL, typical of the paper's era, 96 kB/s
	LinkModem                  // 56 kb/s, 7 kB/s
)

// String names the link class.
func (c LinkClass) String() string {
	switch c {
	case LinkLAN:
		return "LAN"
	case LinkT1:
		return "T1"
	case LinkDSL:
		return "DSL"
	case LinkModem:
		return "modem"
	default:
		return "?"
	}
}

// LadderQuality returns the application QoS tier fitted to link class c for
// source material at the given frame rate. These are the qualities the
// offline replicator materializes (§3.1); NominalBitrate of each tier fits
// within the class bandwidth.
func LadderQuality(c LinkClass, frameRate float64) qos.AppQoS {
	switch c {
	case LinkT1:
		return qos.AppQoS{Resolution: qos.ResCIF, ColorDepth: 24, FrameRate: frameRate, Format: qos.FormatMPEG1}
	case LinkDSL:
		return qos.AppQoS{Resolution: qos.ResVCD, ColorDepth: 16, FrameRate: frameRate, Format: qos.FormatMPEG1}
	case LinkModem:
		return qos.AppQoS{Resolution: qos.ResQCIF, ColorDepth: 8, FrameRate: 10, Format: qos.FormatMPEG1}
	default: // LAN: the original, full-quality file
		return qos.AppQoS{Resolution: qos.ResDVD, ColorDepth: 24, FrameRate: frameRate, Format: qos.FormatMPEG1}
	}
}

// StandardLadder returns the full replica quality ladder, best first.
func StandardLadder(frameRate float64) []qos.AppQoS {
	return []qos.AppQoS{
		LadderQuality(LinkLAN, frameRate),
		LadderQuality(LinkT1, frameRate),
		LadderQuality(LinkDSL, frameRate),
		LadderQuality(LinkModem, frameRate),
	}
}

// corpusSpec fixes the synthetic stand-ins for the paper's 15 MPEG-1 test
// videos: playback times span 30 seconds to 18 minutes (§5, experimental
// setup) and the tags support the medical-database scenario of §1 alongside
// general material.
var corpusSpec = []struct {
	title string
	secs  float64
	fps   float64
	tags  []string
}{
	{"cardiac-mri-patient-007", 30, 23.97, []string{"medical", "mri", "cardiac"}},
	{"endoscopy-session-12", 45, 25, []string{"medical", "endoscopy"}},
	{"gait-analysis-trial", 60, 29.97, []string{"medical", "orthopedic", "gait"}},
	{"ultrasound-obstetric", 75, 23.97, []string{"medical", "ultrasound"}},
	{"surgical-training-knee", 90, 25, []string{"medical", "surgery", "training"}},
	{"campus-news-tuesday", 105, 29.97, []string{"news", "campus"}},
	{"lecture-db-systems-01", 120, 23.97, []string{"lecture", "database"}},
	{"traffic-cam-i65", 150, 25, []string{"surveillance", "traffic"}},
	{"basketball-highlights", 180, 29.97, []string{"sports", "basketball"}},
	{"press-conference-gov", 210, 23.97, []string{"news", "press"}},
	{"nature-wetlands", 240, 25, []string{"documentary", "nature"}},
	{"lecture-db-systems-02", 300, 23.97, []string{"lecture", "database"}},
	{"city-council-meeting", 420, 29.97, []string{"news", "civic"}},
	{"documentary-river", 600, 25, []string{"documentary", "nature"}},
	{"symposium-keynote", 1080, 23.97, []string{"lecture", "keynote"}},
}

// StandardCorpus builds the 15-video synthetic corpus. Seeds derive from a
// single base seed so the whole corpus is reproducible.
func StandardCorpus(baseSeed uint64) []*Video {
	videos := make([]*Video, len(corpusSpec))
	for i, s := range corpusSpec {
		videos[i] = &Video{
			ID:        VideoID(i + 1),
			Title:     s.title,
			Duration:  simtime.Seconds(s.secs),
			FrameRate: s.fps,
			GOP:       DefaultGOP(),
			Tags:      append([]string(nil), s.tags...),
			Seed:      splitmix64(baseSeed + uint64(i)*0x9E37),
		}
	}
	return videos
}
