package vdbms

import (
	"strings"
	"testing"

	"quasaq/internal/media"
	"quasaq/internal/qos"
)

func newCatalog(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	for _, v := range media.StandardCorpus(42) {
		if err := e.InsertVideo(v); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestParseBasicSelect(t *testing.T) {
	q, err := Parse("SELECT * FROM videos")
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "videos" || q.Where != nil || q.HasQoS {
		t.Fatalf("query = %+v", q)
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []string{
		"SELECT * FROM videos WHERE title = 'campus-news-tuesday'",
		"SELECT * FROM videos WHERE duration < 120 AND fps >= 24",
		"SELECT * FROM videos WHERE tags CONTAINS 'medical' OR tags CONTAINS 'news'",
		"SELECT * FROM videos WHERE NOT (duration > 300) AND id != 3",
		"select * from videos where title <> 'x' limit 5",
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT FROM videos",
		"SELECT * FROM",
		"SELECT * FROM videos WHERE",
		"SELECT * FROM videos WHERE bogus = 1",
		"SELECT * FROM videos WHERE title > 'x'",
		"SELECT * FROM videos WHERE duration = 'abc'",
		"SELECT * FROM videos WHERE title = 3",
		"SELECT * FROM videos LIMIT 0",
		"SELECT * FROM videos LIMIT -2",
		"SELECT * FROM videos trailing",
		"SELECT * FROM videos WHERE title = 'unterminated",
		"SELECT * FROM videos WITH QOS resolution >= 'VCD'",
		"SELECT * FROM videos WITH QOS (bogus >= 1)",
		"SELECT * FROM videos WITH QOS (resolution >= 320x)",
		"SELECT * FROM videos WITH QOS (format IN (H264))",
		"SELECT * FROM videos WITH QOS (security >= ultra)",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted invalid query: %s", src)
		}
	}
}

// TestParseErrorsNameExpectedKind: a query cut off where any token of one
// kind would do reports that kind and where the input ended.
func TestParseErrorsNameExpectedKind(t *testing.T) {
	cases := []struct{ src, want string }{
		{"SELECT * FROM videos WITH QOS (", "vdbms: expected identifier, found end of input at 31"},
		{"SELECT * FROM videos LIMIT", "vdbms: expected number, found end of input at 26"},
		{"SELECT * FROM videos SIMILAR TO", "vdbms: expected string, found end of input at 31"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestParseQoSClause(t *testing.T) {
	q, err := Parse("SELECT * FROM videos WHERE id = 1 WITH QOS (" +
		"resolution >= 'VCD', resolution <= 352x288, depth >= 16, " +
		"fps >= 20, fps <= 30, format IN (MPEG1, MPEG2), security >= standard)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasQoS {
		t.Fatal("QoS clause not flagged")
	}
	r := q.QoS
	if r.MinResolution != qos.ResVCD || r.MaxResolution != qos.ResCIF {
		t.Fatalf("resolution range = %v..%v", r.MinResolution, r.MaxResolution)
	}
	if r.MinColorDepth != 16 || r.MinFrameRate != 20 || r.MaxFrameRate != 30 {
		t.Fatalf("numeric bounds wrong: %+v", r)
	}
	if len(r.Formats) != 2 || r.Formats[0] != qos.FormatMPEG1 {
		t.Fatalf("formats = %v", r.Formats)
	}
	if r.Security != qos.SecurityStandard {
		t.Fatalf("security = %v", r.Security)
	}
}

func TestParseQoSPaperExample(t *testing.T) {
	// §3.2: "VCD-like spatial resolution" interpreted as 320x240-352x288.
	q, err := Parse("SELECT * FROM videos WITH QOS (resolution >= VCD, resolution <= CIF)")
	if err != nil {
		t.Fatal(err)
	}
	cifQuality := qos.AppQoS{Resolution: qos.ResCIF, ColorDepth: 24, FrameRate: 24, Format: qos.FormatMPEG1}
	if !q.QoS.SatisfiedBy(cifQuality) {
		t.Fatal("CIF replica should satisfy the VCD-like band")
	}
	dvdQuality := cifQuality
	dvdQuality.Resolution = qos.ResDVD
	if q.QoS.SatisfiedBy(dvdQuality) {
		t.Fatal("DVD replica exceeds the VCD-like band")
	}
}

func TestExecuteTitleEquality(t *testing.T) {
	e := newCatalog(t)
	res, _, err := e.ExecuteSQL("SELECT * FROM videos WHERE title = 'campus-news-tuesday'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Video.Title != "campus-news-tuesday" {
		t.Fatalf("results = %v", res)
	}
}

func TestExecutePredicateCombination(t *testing.T) {
	e := newCatalog(t)
	res, _, err := e.ExecuteSQL("SELECT * FROM videos WHERE tags CONTAINS 'medical' AND duration <= 60")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 { // 30s mri, 45s endoscopy, 60s gait
		t.Fatalf("got %d medical shorts, want 3", len(res))
	}
	for _, r := range res {
		found := false
		for _, tag := range r.Video.Tags {
			if tag == "medical" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v lacks medical tag", r.Video.Title)
		}
	}
}

func TestExecuteOrNotPrecedence(t *testing.T) {
	e := newCatalog(t)
	all, _, _ := e.ExecuteSQL("SELECT * FROM videos")
	res, _, err := e.ExecuteSQL("SELECT * FROM videos WHERE NOT tags CONTAINS 'medical'")
	if err != nil {
		t.Fatal(err)
	}
	med, _, _ := e.ExecuteSQL("SELECT * FROM videos WHERE tags CONTAINS 'medical'")
	if len(res)+len(med) != len(all) {
		t.Fatalf("NOT partition broken: %d + %d != %d", len(res), len(med), len(all))
	}
}

func TestExecuteSimilarTo(t *testing.T) {
	e := newCatalog(t)
	res, _, err := e.ExecuteSQL("SELECT * FROM videos SIMILAR TO 'cardiac-mri-patient-007' LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("limit not applied: %d", len(res))
	}
	// The reference itself is the nearest neighbour (distance 0).
	if res[0].Video.Title != "cardiac-mri-patient-007" || res[0].Distance != 0 {
		t.Fatalf("nearest = %v dist %v", res[0].Video.Title, res[0].Distance)
	}
	if res[1].Distance > res[2].Distance {
		t.Fatal("results not sorted by distance")
	}
}

func TestExecuteSimilarToByID(t *testing.T) {
	e := newCatalog(t)
	res, _, err := e.ExecuteSQL("SELECT * FROM videos SIMILAR TO 'v001' LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Video.ID != 1 {
		t.Fatalf("nearest to v001 = %v", res[0].Video.ID)
	}
}

func TestExecuteSimilarToUnknownRef(t *testing.T) {
	e := newCatalog(t)
	if _, _, err := e.ExecuteSQL("SELECT * FROM videos SIMILAR TO 'nope'"); err == nil {
		t.Fatal("unknown reference accepted")
	}
}

func TestExecuteUnknownTable(t *testing.T) {
	e := newCatalog(t)
	if _, _, err := e.ExecuteSQL("SELECT * FROM audio"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestInsertDuplicate(t *testing.T) {
	e := newCatalog(t)
	v := media.StandardCorpus(42)[0]
	if err := e.InsertVideo(v); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

func TestVideoLookup(t *testing.T) {
	e := newCatalog(t)
	v, err := e.Video(5)
	if err != nil || v.ID != 5 {
		t.Fatalf("lookup: %v %v", v, err)
	}
	if _, err := e.Video(99); err == nil {
		t.Fatal("missing id accepted")
	}
	if got := e.All(); len(got) != 15 || got[0].ID != 1 {
		t.Fatalf("All() wrong: %d items", len(got))
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	q, err := Parse("SELECT * FROM videos WHERE (title = 'a' OR duration < 60) AND NOT tags CONTAINS 'x'")
	if err != nil {
		t.Fatal(err)
	}
	s := q.Where.String()
	for _, want := range []string{"OR", "AND", "NOT", "CONTAINS"} {
		if !strings.Contains(s, want) {
			t.Fatalf("expr string %q missing %s", s, want)
		}
	}
}

func TestQueryWithEscapedQuote(t *testing.T) {
	e := NewEngine()
	v := &media.Video{ID: 1, Title: "o'brien", Duration: media.StandardCorpus(1)[0].Duration,
		FrameRate: 24, GOP: media.DefaultGOP(), Tags: []string{"t"}, Seed: 1}
	if err := e.InsertVideo(v); err != nil {
		t.Fatal(err)
	}
	res, _, err := e.ExecuteSQL("SELECT * FROM videos WHERE title = 'o''brien'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("escaped-quote match failed: %d results", len(res))
	}
}
