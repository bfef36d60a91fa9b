package vdbms

import (
	"strings"
	"testing"
)

// FuzzQoSClause feeds arbitrary clause bodies through the full
// lexer/parser/qosclause pipeline. The property under fuzz: parsing never
// panics, and anything that parses successfully round-trips —
// ParseRequirement(req.String()) reproduces an equal requirement — so the
// grammar and the printer can never drift apart. Seeds start inside every
// term parser: well-formed clauses at several quality points plus
// truncations and character mutations of a full clause.
func FuzzQoSClause(f *testing.F) {
	full := "resolution >= 'VCD', resolution <= 352x288, depth >= 16, " +
		"fps >= 20, fps <= 30, format IN (MPEG1, MPEG2), security >= standard, " +
		"loss <= 0.05, delay <= 40, jitter <= 10, throughput >= 500000"
	seeds := []string{
		"any",
		"resolution >= VCD",
		"res = 720x480, fps = 24",
		"delay <= 40",
		"loss <= 0.05, throughput >= 500000",
		"format IN (MPEG1,MPEG2,MJPEG)",
		full,
		// Malformed shapes the parser must reject cleanly.
		"delay >= 40",
		"delay <= 40, delay <= 80",
		"fps >= 30, fps <= 20",
		"loss <= 1.5",
		"(((",
		"delay <=",
		"throughput >= 5e6",
	}
	// Truncations: mid-term, mid-operator, mid-number.
	for _, cut := range []int{3, 17, 25, 41, len(full) / 2, len(full) - 2} {
		if cut < len(full) {
			seeds = append(seeds, full[:cut])
		}
	}
	// Character mutations across the clause structure.
	for pos := 0; pos < len(full); pos += 13 {
		mut := []byte(full)
		mut[pos] = '?'
		seeds = append(seeds, string(mut))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := ParseRequirement(body)
		if err != nil {
			return
		}
		s := req.String()
		again, err := ParseRequirement(s)
		if err != nil {
			t.Fatalf("String() output %q of accepted clause %q does not re-parse: %v", s, body, err)
		}
		// Accepted clauses must stabilize after one print/parse cycle.
		if again.String() != s {
			t.Fatalf("round-trip unstable: %q -> %q -> %q", body, s, again.String())
		}
		// Whatever parsed must respect the canonical-direction invariant.
		for _, th := range req.Net {
			if want := canonicalDir(th.Metric.String()); th.Dir.String() != want {
				t.Fatalf("clause %q produced non-canonical direction %s for %s", body, th.Dir, th.Metric)
			}
		}
		_ = strings.TrimSpace(body)
	})
}

func canonicalDir(metric string) string {
	if metric == "throughput" {
		return ">="
	}
	return "<="
}
