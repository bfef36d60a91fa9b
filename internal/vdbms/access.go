package vdbms

import (
	"fmt"
	"math"
)

// AccessPath describes how the executor will locate candidate rows for a
// query: a point lookup on the id index, a range scan on the duration
// index, a lookup on the title or tag hash index, or a full heap scan. The
// residual predicate is always re-applied to fetched rows, so index bounds
// only need to be a superset.
type AccessPath struct {
	Kind string // "id-index", "duration-index", "title-index", "tag-index", "full-scan"
	// IDKey is the point key for id-index paths and the hash key for
	// title-index and tag-index paths.
	IDKey int64
	// Lo and Hi bound the duration index scan in milliseconds.
	Lo, Hi int64
}

// String renders the path for EXPLAIN-style output.
func (p AccessPath) String() string {
	switch p.Kind {
	case "id-index":
		return fmt.Sprintf("index scan (id = %d)", p.IDKey)
	case "duration-index":
		return fmt.Sprintf("index range scan (duration in [%d ms, %d ms])", p.Lo, p.Hi)
	case "title-index":
		return fmt.Sprintf("hash index scan (title, key %d)", p.IDKey)
	case "tag-index":
		return fmt.Sprintf("hash index scan (tag, key %d)", p.IDKey)
	default:
		return "full catalog scan"
	}
}

// conjuncts flattens a predicate's top-level AND tree.
func conjuncts(e Expr) []Expr {
	if a, ok := e.(andExpr); ok {
		return append(conjuncts(a.l), conjuncts(a.r)...)
	}
	return []Expr{e}
}

// ChooseAccessPath inspects the predicate for index opportunities. The
// planner prefers the id index (point lookup), then a duration range, then
// the title hash index (title = 'x'), then the tag hash index (tags
// CONTAINS 'x'), and falls back to a full scan. Predicates under OR or NOT
// cannot restrict the candidate set, so only top-level AND conjuncts count.
func ChooseAccessPath(where Expr) AccessPath {
	if where == nil {
		return AccessPath{Kind: "full-scan"}
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	haveDur := false
	for _, c := range conjuncts(where) {
		cmp, ok := c.(cmpExpr)
		if !ok || !cmp.isNum {
			continue
		}
		switch cmp.field {
		case "id":
			if cmp.op == "=" {
				return AccessPath{Kind: "id-index", IDKey: int64(cmp.num)}
			}
		case "duration":
			// Bounds in ms, widened by 1 to stay a superset under float
			// rounding; the residual predicate re-checks exactly.
			ms := cmp.num * 1000
			switch cmp.op {
			case "=":
				l, h := int64(ms)-1, int64(ms)+1
				if l > lo {
					lo = l
				}
				if h < hi {
					hi = h
				}
				haveDur = true
			case "<", "<=":
				if h := int64(ms) + 1; h < hi {
					hi = h
				}
				haveDur = true
			case ">", ">=":
				if l := int64(ms) - 1; l > lo {
					lo = l
				}
				haveDur = true
			}
		}
	}
	if haveDur {
		return AccessPath{Kind: "duration-index", Lo: lo, Hi: hi}
	}
	if p, ok := chooseStringPath(where); ok {
		return p
	}
	return AccessPath{Kind: "full-scan"}
}

// Explain parses a query and reports its access path and shape without
// executing it.
func (e *Engine) Explain(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	path := ChooseAccessPath(q.Where)
	out := path.String()
	if q.SimilarTo != "" {
		out += fmt.Sprintf(" -> similarity rank vs %q", q.SimilarTo)
	}
	if q.Limit > 0 {
		out += fmt.Sprintf(" -> limit %d", q.Limit)
	}
	if q.HasQoS {
		out += " -> QoS-constrained delivery"
	}
	return out, nil
}

// ExecStats counts executor work for observability and tests. A query that
// is not an index query is a full scan.
type ExecStats struct {
	Queries         uint64
	IndexQueries    uint64
	RecordsExamined uint64
}
