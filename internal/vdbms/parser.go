package vdbms

import (
	"fmt"
	"strconv"
	"strings"

	"quasaq/internal/qos"
)

// Query is a parsed QoS-aware query: the conventional content part plus the
// QoS requirement QuaSAQ appends (the paper's "QoS-enhanced queries", §3.2).
//
// Grammar (case-insensitive keywords):
//
//	SELECT * FROM videos
//	  [WHERE <predicate>]
//	  [SIMILAR TO '<video title or id>']
//	  [LIMIT <n>]
//	  [WITH QOS ( <qos-term> {, <qos-term>} )]
//
// Predicates combine comparisons over id, title, duration, fps and
// tags CONTAINS '<tag>' with AND/OR/NOT and parentheses (for FROM qoe the
// field set is the persisted QoE schema — see qoe.go). QoS terms are
// AND-composed; app-level:
//
//	resolution >= 320x240 | resolution <= 'VCD' | depth >= 16 |
//	fps >= 20 | fps <= 30 | format IN (MPEG1, MPEG2) | security >= standard
//
// and network-level, each bounded only in its canonical direction (delay
// and jitter in milliseconds, loss as a fraction, throughput in bytes/s):
//
//	delay <= 40 | jitter <= 10 | loss <= 0.05 | throughput >= 500000
//
// Duplicate terms and contradictory ranges (min > max) are positioned
// parse errors, not last-wins.
type Query struct {
	Table     string
	Where     Expr // nil = match all
	SimilarTo string
	Limit     int // 0 = unlimited
	QoS       qos.Requirement
	HasQoS    bool
}

// Expr is a boolean predicate over a catalog row.
type Expr interface {
	Eval(row *Row) bool
	String() string
}

// Row is the evaluation view of one catalog record.
type Row struct {
	ID       uint32
	Title    string
	Duration float64 // seconds
	FPS      float64
	Tags     []string
}

type andExpr struct{ l, r Expr }
type orExpr struct{ l, r Expr }
type notExpr struct{ e Expr }

func (e andExpr) Eval(r *Row) bool { return e.l.Eval(r) && e.r.Eval(r) }
func (e orExpr) Eval(r *Row) bool  { return e.l.Eval(r) || e.r.Eval(r) }
func (e notExpr) Eval(r *Row) bool { return !e.e.Eval(r) }
func (e andExpr) String() string   { return "(" + e.l.String() + " AND " + e.r.String() + ")" }
func (e orExpr) String() string    { return "(" + e.l.String() + " OR " + e.r.String() + ")" }
func (e notExpr) String() string   { return "(NOT " + e.e.String() + ")" }

type cmpExpr struct {
	field string // id, title, duration, fps
	op    string
	str   string
	num   float64
	isNum bool
}

func (e cmpExpr) String() string {
	if e.isNum {
		return fmt.Sprintf("%s %s %g", e.field, e.op, e.num)
	}
	return fmt.Sprintf("%s %s '%s'", e.field, e.op, e.str)
}

func (e cmpExpr) Eval(r *Row) bool {
	if e.isNum {
		var v float64
		switch e.field {
		case "id":
			v = float64(r.ID)
		case "duration":
			v = r.Duration
		case "fps":
			v = r.FPS
		default:
			return false
		}
		switch e.op {
		case "=":
			return v == e.num
		case "!=":
			return v != e.num
		case "<":
			return v < e.num
		case "<=":
			return v <= e.num
		case ">":
			return v > e.num
		case ">=":
			return v >= e.num
		}
		return false
	}
	if e.field != "title" {
		return false
	}
	switch e.op {
	case "=":
		return r.Title == e.str
	case "!=":
		return r.Title != e.str
	}
	return false
}

type containsExpr struct{ tag string }

func (e containsExpr) String() string { return fmt.Sprintf("tags CONTAINS '%s'", e.tag) }
func (e containsExpr) Eval(r *Row) bool {
	for _, t := range r.Tags {
		if strings.EqualFold(t, e.tag) {
			return true
		}
	}
	return false
}

type parser struct {
	toks  []token
	pos   int
	table string // lowercased FROM table; selects the field whitelist
}

// tableFields returns the string- and numeric-typed fields queryable for a
// table. The videos catalog exposes the paper's content fields; the qoe
// table exposes the persisted violation-record schema (see qoe.go). Unknown
// tables fall back to the videos whitelist so the parser error stays at the
// execution layer, matching historical behavior.
func tableFields(table string) (str, num map[string]bool) {
	if table == "qoe" {
		return map[string]bool{"video": true, "site": true, "metric": true, "kind": true},
			map[string]bool{"session": true, "counter": true, "min": true, "max": true,
				"avg": true, "peak": true, "time": true}
	}
	return map[string]bool{"title": true},
		map[string]bool{"id": true, "duration": true, "fps": true}
}

// Parse parses a QoS-aware query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("vdbms: trailing input at %q", p.cur().text)
	}
	return q, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || strings.EqualFold(t.text, text))
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes the current token if it matches kind (and text, unless
// text is empty). The error names what was wanted — the text, or the kind
// when any token of that kind would do — and what was found.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := kind.String()
	if text != "" {
		want = fmt.Sprintf("%q", text)
	}
	cur := p.cur()
	found := fmt.Sprintf("%q", cur.text)
	if cur.kind == tokEOF {
		found = tokEOF.String()
	}
	return token{}, fmt.Errorf("vdbms: expected %s, found %s at %d", want, found, cur.pos)
}

func (p *parser) parseQuery() (*Query, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "*"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	q := &Query{Table: tbl.text}
	p.table = strings.ToLower(tbl.text)
	if p.accept(tokKeyword, "WHERE") {
		q.Where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "SIMILAR") {
		if _, err := p.expect(tokKeyword, "TO"); err != nil {
			return nil, err
		}
		ref, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		q.SimilarTo = ref.text
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		lim, err := strconv.Atoi(n.text)
		if err != nil || lim <= 0 {
			return nil, fmt.Errorf("vdbms: bad LIMIT %q", n.text)
		}
		q.Limit = lim
	}
	if p.accept(tokKeyword, "WITH") {
		if _, err := p.expect(tokKeyword, "QOS"); err != nil {
			return nil, err
		}
		req, err := p.parseQoS()
		if err != nil {
			return nil, err
		}
		q.QoS = req
		q.HasQoS = true
	}
	return q, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = orExpr{l, r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = andExpr{l, r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{e}, nil
	}
	if p.accept(tokOp, "(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	field, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	name := strings.ToLower(field.text)
	strFields, numFields := tableFields(p.table)
	if name == "tags" && p.table != "qoe" {
		if _, err := p.expect(tokKeyword, "CONTAINS"); err != nil {
			return nil, err
		}
		tag, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return containsExpr{tag: tag.text}, nil
	}
	if !strFields[name] && !numFields[name] {
		return nil, fmt.Errorf("vdbms: unknown field %q at %d", field.text, field.pos)
	}
	if p.cur().kind != tokOp {
		return nil, fmt.Errorf("vdbms: expected comparison operator after %q", field.text)
	}
	op := p.next().text
	if op == "<>" {
		op = "!="
	}
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("vdbms: bad operator %q", op)
	}
	val := p.next()
	switch val.kind {
	case tokString:
		if !strFields[name] {
			return nil, fmt.Errorf("vdbms: field %q needs a numeric value", name)
		}
		if op != "=" && op != "!=" {
			return nil, fmt.Errorf("vdbms: operator %q invalid for strings", op)
		}
		return cmpExpr{field: name, op: op, str: val.text}, nil
	case tokNumber:
		if strFields[name] {
			return nil, fmt.Errorf("vdbms: field %q needs a string value", name)
		}
		f, err := strconv.ParseFloat(val.text, 64)
		if err != nil {
			return nil, fmt.Errorf("vdbms: bad number %q", val.text)
		}
		return cmpExpr{field: name, op: op, num: f, isNum: true}, nil
	default:
		return nil, fmt.Errorf("vdbms: expected value after %q %s", field.text, op)
	}
}
