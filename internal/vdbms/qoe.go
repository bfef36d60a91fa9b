package vdbms

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"strings"

	"quasaq/internal/storage"
)

// QoERecord is one persisted QoE event, after the qoe_errors schema of the
// SNIPPETS reference (stream, error kind, counter, min/max/avg, peak flag,
// timestamp): the guardian appends one on every declared violation and
// every recovery, and experiments query the history back through the
// engine (`SELECT * FROM qoe WHERE ...`). Min/Max/Avg summarize the
// observed metric value over the windows of the breach run that led to the
// declaration; Peak marks a run whose worst window reached twice the
// threshold bound.
type QoERecord struct {
	Session    int     // guardian session ordinal (stable per run)
	Video      string  // video id, e.g. "v012"
	Site       string  // delivery site at declaration time
	Metric     string  // loss | delay | jitter | throughput
	Kind       string  // "violation" | "recovered"
	Counter    int     // per-session event ordinal
	Min        float64 // windowed metric minimum over the breach run
	Max        float64 // windowed metric maximum over the breach run
	Avg        float64 // windowed metric mean over the breach run
	Peak       bool    // some window reached 2x the threshold bound
	TimeMillis int64   // sim-clock timestamp (ms)
}

// qoeRow is the predicate-evaluation view of a QoE record; `time` is
// exposed in seconds to match the duration field of the videos table, and
// `peak` as 0/1 so numeric comparisons work.
func evalQoE(e Expr, r *QoERecord) bool {
	switch x := e.(type) {
	case andExpr:
		return evalQoE(x.l, r) && evalQoE(x.r, r)
	case orExpr:
		return evalQoE(x.l, r) || evalQoE(x.r, r)
	case notExpr:
		return !evalQoE(x.e, r)
	case cmpExpr:
		if x.isNum {
			var v float64
			switch x.field {
			case "session":
				v = float64(r.Session)
			case "counter":
				v = float64(r.Counter)
			case "min":
				v = r.Min
			case "max":
				v = r.Max
			case "avg":
				v = r.Avg
			case "peak":
				if r.Peak {
					v = 1
				}
			case "time":
				v = float64(r.TimeMillis) / 1000
			default:
				return false
			}
			switch x.op {
			case "=":
				return v == x.num
			case "!=":
				return v != x.num
			case "<":
				return v < x.num
			case "<=":
				return v <= x.num
			case ">":
				return v > x.num
			case ">=":
				return v >= x.num
			}
			return false
		}
		var s string
		switch x.field {
		case "video":
			s = r.Video
		case "site":
			s = r.Site
		case "metric":
			s = r.Metric
		case "kind":
			s = r.Kind
		default:
			return false
		}
		switch x.op {
		case "=":
			return strings.EqualFold(s, x.str)
		case "!=":
			return !strings.EqualFold(s, x.str)
		}
		return false
	default:
		return false
	}
}

// AppendQoE persists one QoE record through the heap file and the
// time-keyed B+tree.
func (e *Engine) AppendQoE(rec QoERecord) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return fmt.Errorf("vdbms: encode qoe record: %w", err)
	}
	oid, err := e.qoeHeap.Insert(buf.Bytes())
	if err != nil {
		return fmt.Errorf("vdbms: store qoe record: %w", err)
	}
	if err := e.qoeTimeIdx.Insert(rec.TimeMillis, oid); err != nil {
		return fmt.Errorf("vdbms: qoe time index: %w", err)
	}
	e.qoeCount++
	return nil
}

// QoECount returns the number of persisted QoE records.
func (e *Engine) QoECount() int { return e.qoeCount }

// QoESQL parses and executes a query against the qoe table.
func (e *Engine) QoESQL(src string) ([]QoERecord, *Query, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	recs, err := e.ExecuteQoE(q)
	return recs, q, err
}

// ExecuteQoE runs a parsed query over the persisted QoE history. Top-level
// time bounds use the time index (widened one millisecond each way against
// float rounding, with the predicate re-checked on fetch); everything else
// is a residual predicate over a heap scan. Results are ordered by
// (time, session, counter) and truncated to LIMIT.
func (e *Engine) ExecuteQoE(q *Query) ([]QoERecord, error) {
	if !strings.EqualFold(q.Table, "qoe") {
		return nil, fmt.Errorf("vdbms: ExecuteQoE wants table qoe, got %q", q.Table)
	}
	var out []QoERecord
	consider := func(data []byte) error {
		var rec QoERecord
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
			return fmt.Errorf("vdbms: corrupt qoe record: %w", err)
		}
		if q.Where != nil && !evalQoE(q.Where, &rec) {
			return nil
		}
		out = append(out, rec)
		return nil
	}

	lo, hi, bounded := qoeTimeBounds(q.Where)
	var err error
	if bounded {
		var oids []storage.OID
		err = e.qoeTimeIdx.Range(lo, hi, func(_ int64, v storage.OID) bool {
			oids = append(oids, v)
			return true
		})
		if err == nil {
			for _, oid := range oids {
				data, gerr := e.qoeHeap.Get(oid)
				if gerr != nil {
					return nil, fmt.Errorf("vdbms: dangling qoe index entry %v: %w", oid, gerr)
				}
				if err = consider(data); err != nil {
					break
				}
			}
		}
	} else {
		var innerErr error
		err = e.qoeHeap.Scan(func(_ storage.OID, data []byte) bool {
			innerErr = consider(data)
			return innerErr == nil
		})
		if err == nil {
			err = innerErr
		}
	}
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TimeMillis != b.TimeMillis {
			return a.TimeMillis < b.TimeMillis
		}
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		return a.Counter < b.Counter
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// qoeTimeBounds extracts index bounds (in milliseconds) from top-level
// `time` conjuncts, following ChooseAccessPath's rule that predicates under
// OR or NOT cannot restrict the candidate set.
func qoeTimeBounds(where Expr) (lo, hi int64, ok bool) {
	if where == nil {
		return 0, 0, false
	}
	lo, hi = int64(math.MinInt64), int64(math.MaxInt64)
	for _, c := range conjuncts(where) {
		cmp, isCmp := c.(cmpExpr)
		if !isCmp || !cmp.isNum || cmp.field != "time" {
			continue
		}
		ms := int64(cmp.num * 1000)
		switch cmp.op {
		case "=":
			if ms-1 > lo {
				lo = ms - 1
			}
			if ms+1 < hi {
				hi = ms + 1
			}
			ok = true
		case ">", ">=":
			if ms-1 > lo {
				lo = ms - 1
			}
			ok = true
		case "<", "<=":
			if ms+1 < hi {
				hi = ms + 1
			}
			ok = true
		}
	}
	if !ok || lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}
