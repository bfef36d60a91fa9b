package qos

import (
	"strings"
	"testing"
)

func TestFormatRoundTrip(t *testing.T) {
	for _, f := range []Format{FormatMPEG1, FormatMPEG2, FormatMJPEG} {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Errorf("round trip %v: got %v err %v", f, got, err)
		}
	}
	if _, err := ParseFormat("h264"); err == nil {
		t.Error("ParseFormat accepted unknown format")
	}
	if got, _ := ParseFormat("mpeg1"); got != FormatMPEG1 {
		t.Error("ParseFormat not case-insensitive")
	}
}

func TestResolutionAtLeast(t *testing.T) {
	cases := []struct {
		a, b Resolution
		want bool
	}{
		{ResDVD, ResVCD, true},
		{ResVCD, ResDVD, false},
		{ResCIF, ResVCD, true},               // 352x288 >= 320x240
		{ResVCD, ResCIF, false},              // 320x240 < 352x288
		{ResSD, ResSD, true},                 // reflexive
		{Resolution{720, 400}, ResSD, false}, // taller loses despite wider
	}
	for _, c := range cases {
		if got := c.a.AtLeast(c.b); got != c.want {
			t.Errorf("%v.AtLeast(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAppQoSValidate(t *testing.T) {
	good := AppQoS{Resolution: ResDVD, ColorDepth: 24, FrameRate: 23.97, Format: FormatMPEG1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid AppQoS rejected: %v", err)
	}
	bad := []AppQoS{
		{Resolution: Resolution{0, 480}, ColorDepth: 24, FrameRate: 24, Format: FormatMPEG1},
		{Resolution: ResDVD, ColorDepth: 13, FrameRate: 24, Format: FormatMPEG1},
		{Resolution: ResDVD, ColorDepth: 24, FrameRate: 0, Format: FormatMPEG1},
		{Resolution: ResDVD, ColorDepth: 24, FrameRate: 500, Format: FormatMPEG1},
		{Resolution: ResDVD, ColorDepth: 24, FrameRate: 24},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid AppQoS accepted: %v", i, q)
		}
	}
}

func TestRequirementSatisfiedBy(t *testing.T) {
	q := AppQoS{Resolution: ResCIF, ColorDepth: 24, FrameRate: 23.97, Format: FormatMPEG1}
	cases := []struct {
		name string
		r    Requirement
		want bool
	}{
		{"empty matches all", Requirement{}, true},
		{"VCD band (paper's example)", Requirement{MinResolution: ResVCD, MaxResolution: ResCIF}, true},
		{"too small", Requirement{MinResolution: ResSD}, false},
		{"too large", Requirement{MaxResolution: ResVCD}, false},
		{"depth ok", Requirement{MinColorDepth: 24}, true},
		{"depth too low", Requirement{MinColorDepth: 32}, false},
		{"fps band", Requirement{MinFrameRate: 20, MaxFrameRate: 30}, true},
		{"fps too low", Requirement{MinFrameRate: 25}, false},
		{"fps too high", Requirement{MaxFrameRate: 15}, false},
		{"format listed", Requirement{Formats: []Format{FormatMPEG2, FormatMPEG1}}, true},
		{"format not listed", Requirement{Formats: []Format{FormatMPEG2}}, false},
		{"needs security", Requirement{Security: SecurityStandard}, false},
	}
	for _, c := range cases {
		if got := c.r.SatisfiedBy(q); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRequirementExactFrameRateBoundary(t *testing.T) {
	q := AppQoS{Resolution: ResCIF, ColorDepth: 24, FrameRate: 23.97, Format: FormatMPEG1}
	r := Requirement{MinFrameRate: 23.97, MaxFrameRate: 23.97}
	if !r.SatisfiedBy(q) {
		t.Fatal("exact frame-rate bound rejected (float tolerance missing)")
	}
}

func TestFitsWithin(t *testing.T) {
	capacity := ResourceVector{1, 1000, 1000, 1000}
	usage := ResourceVector{0.5, 500, 0, 0}
	ok := ResourceVector{0.5, 500, 1000, 1000}
	if !ok.FitsWithin(usage, capacity) {
		t.Fatal("exact fit rejected")
	}
	over := ResourceVector{0.6, 0, 0, 0}
	if over.FitsWithin(usage, capacity) {
		t.Fatal("overflow admitted")
	}
}

func TestMaxFillRatioMatchesEq1(t *testing.T) {
	// Figure 3 style check: the bucket with the largest (U_i+r_i)/R_i wins.
	capacity := ResourceVector{1, 100, 100, 100}
	usage := ResourceVector{0.2, 42, 10, 0}
	demand := ResourceVector{0.1, 8, 80, 0}
	got := demand.MaxFillRatio(usage, capacity)
	if got != 0.9 { // disk bucket: (10+80)/100
		t.Fatalf("MaxFillRatio = %v, want 0.9", got)
	}
}

func TestMaxFillRatioZeroCapacity(t *testing.T) {
	capacity := ResourceVector{1, 0, 0, 0}
	demand := ResourceVector{0.5, 10, 0, 0}
	if got := demand.MaxFillRatio(ResourceVector{}, capacity); got < 1e100 {
		t.Fatalf("demand on zero-capacity axis should be infinite, got %v", got)
	}
	free := ResourceVector{0.5, 0, 0, 0}
	if got := free.MaxFillRatio(ResourceVector{}, capacity); got != 0.5 {
		t.Fatalf("zero-capacity axis with zero demand should be skipped, got %v", got)
	}
}

func TestSumRatio(t *testing.T) {
	capacity := ResourceVector{1, 100, 100, 100}
	demand := ResourceVector{0.5, 50, 25, 0}
	if got := demand.SumRatio(capacity); got != 1.25 {
		t.Fatalf("SumRatio = %v, want 1.25", got)
	}
}

func TestCatalogCoversTable1(t *testing.T) {
	byLevel := map[string]int{}
	for _, e := range Catalog() {
		byLevel[e.Level]++
	}
	if byLevel["application"] != 6 || byLevel["system"] != 3 || byLevel["network"] != 6 {
		t.Fatalf("catalog row counts %v do not match Table 1", byLevel)
	}
}

func TestStrings(t *testing.T) {
	q := AppQoS{Resolution: ResDVD, ColorDepth: 24, FrameRate: 23.97, Format: FormatMPEG1, Security: SecurityStandard}
	s := q.String()
	for _, want := range []string{"720x480", "24bit", "23.97fps", "MPEG1", "standard"} {
		if !strings.Contains(s, want) {
			t.Errorf("AppQoS string %q missing %q", s, want)
		}
	}
	r := Requirement{MinResolution: ResVCD, Formats: []Format{FormatMPEG1}}
	if !strings.Contains(r.String(), "res>=320x240") {
		t.Errorf("Requirement string %q missing bound", r.String())
	}
	if (Requirement{}).String() != "any" {
		t.Error("empty requirement should render as 'any'")
	}
	v := ResourceVector{0.5, 100, 0, 4096}
	if !strings.Contains(v.String(), "cpu=0.500") {
		t.Errorf("vector string %q missing cpu", v.String())
	}
}
