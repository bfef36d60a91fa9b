package vdbms

import (
	"fmt"
	"math/rand"
	"testing"
)

func qoeFixture(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	metrics := []string{"loss", "delay", "jitter", "throughput"}
	for i := 0; i < 40; i++ {
		kind := "violation"
		if i%5 == 4 {
			kind = "recovered"
		}
		rec := QoERecord{
			Session:    i % 6,
			Video:      fmt.Sprintf("v%03d", i%4),
			Site:       "srv-" + string(rune('a'+i%3)),
			Metric:     metrics[i%len(metrics)],
			Kind:       kind,
			Counter:    i / 6,
			Min:        float64(i),
			Max:        float64(i) * 2,
			Avg:        float64(i) * 1.5,
			Peak:       i%7 == 0,
			TimeMillis: int64(i) * 500,
		}
		if err := e.AppendQoE(rec); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestQoEQueryByMetricAndKind(t *testing.T) {
	e := qoeFixture(t)
	recs, q, err := e.QoESQL("SELECT * FROM qoe WHERE metric = 'loss' AND kind = 'violation'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "qoe" {
		t.Fatalf("table = %q", q.Table)
	}
	if len(recs) == 0 {
		t.Fatal("no records matched")
	}
	for _, r := range recs {
		if r.Metric != "loss" || r.Kind != "violation" {
			t.Fatalf("predicate leaked: %+v", r)
		}
	}
	// i%4==0 gives metric loss; of those, i%5==4 never coincides below 40
	// except i=24 (kind recovered): metrics at i=0,4,8,...,36 -> 10 loss
	// records, i=4,24 are recovered -> 8 violations.
	if len(recs) != 8 {
		t.Fatalf("got %d loss violations, want 8", len(recs))
	}
}

func TestQoEQueryTimeRangeUsesIndexConsistently(t *testing.T) {
	e := qoeFixture(t)
	// time is in seconds; records are at 0, 0.5, 1.0, ... 19.5s.
	indexed, _, err := e.QoESQL("SELECT * FROM qoe WHERE time >= 5 AND time <= 10")
	if err != nil {
		t.Fatal(err)
	}
	scan, _, err := e.QoESQL("SELECT * FROM qoe WHERE NOT (time < 5 OR time > 10)")
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) == 0 || len(indexed) != len(scan) {
		t.Fatalf("index path %d records vs scan path %d", len(indexed), len(scan))
	}
	for i := range indexed {
		if indexed[i] != scan[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, indexed[i], scan[i])
		}
	}
	for _, r := range indexed {
		if r.TimeMillis < 5000 || r.TimeMillis > 10000 {
			t.Fatalf("record outside time range: %+v", r)
		}
	}
}

func TestQoEQueryOrderingAndLimit(t *testing.T) {
	e := qoeFixture(t)
	recs, _, err := e.QoESQL("SELECT * FROM qoe WHERE peak = 1 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("LIMIT ignored: %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].TimeMillis < recs[i-1].TimeMillis {
			t.Fatalf("not time-ordered: %+v before %+v", recs[i-1], recs[i])
		}
	}
	for _, r := range recs {
		if !r.Peak {
			t.Fatalf("peak predicate leaked: %+v", r)
		}
	}
}

func TestQoEUnknownFieldRejected(t *testing.T) {
	e := qoeFixture(t)
	if _, _, err := e.QoESQL("SELECT * FROM qoe WHERE title = 'x'"); err == nil {
		t.Fatal("qoe table accepted a videos field")
	}
	if _, _, err := e.QoESQL("SELECT * FROM qoe WHERE tags CONTAINS 'x'"); err == nil {
		t.Fatal("qoe table accepted tags CONTAINS")
	}
	if _, err := e.ExecuteQoE(&Query{Table: "videos"}); err == nil {
		t.Fatal("ExecuteQoE accepted the videos table")
	}
}

// TestQoEConcurrentAppendQuery interleaves, in a seeded order, four
// guardian-style append streams with experiment-style queries, as a world's
// guardians and experiment hooks interleave on the simulation clock. Every
// query must see exactly the records appended so far (no lost append) and
// never a torn record.
func TestQoEConcurrentAppendQuery(t *testing.T) {
	e := NewEngine()
	const writers, perWriter = 4, 100
	var done [writers]int
	appended := 0
	order := rand.New(rand.NewSource(13))
	for appended < writers*perWriter {
		if w := order.Intn(writers + 1); w < writers {
			for done[w] == perWriter {
				w = (w + 1) % writers
			}
			i := done[w]
			done[w]++
			rec := QoERecord{
				Session:    w,
				Video:      fmt.Sprintf("v%03d", w),
				Metric:     "loss",
				Kind:       "violation",
				Counter:    i,
				Min:        float64(i),
				Max:        float64(i),
				Avg:        float64(i),
				TimeMillis: int64(i),
			}
			if err := e.AppendQoE(rec); err != nil {
				t.Fatal(err)
			}
			appended++
			continue
		}
		recs, _, err := e.QoESQL("SELECT * FROM qoe WHERE metric = 'loss'")
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != appended {
			t.Fatalf("query saw %d records after %d appends", len(recs), appended)
		}
		for _, r := range recs {
			if r.Min != r.Max || r.Metric != "loss" {
				t.Fatalf("torn record: %+v", r)
			}
		}
	}
	recs, _, err := e.QoESQL("SELECT * FROM qoe")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("final count %d, want %d", len(recs), writers*perWriter)
	}
	if e.QoECount() != writers*perWriter {
		t.Fatalf("QoECount = %d", e.QoECount())
	}
}
