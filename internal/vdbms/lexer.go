// Package vdbms is the reproduction's stand-in for the VDBMS/PREDATOR
// object-relational engine that QuaSAQ extends (§4). It owns the *content
// phase* of query processing: parsing a query (including the QoS clause
// QuaSAQ adds to the SQL surface), evaluating content predicates and
// feature-vector similarity over the video catalog, and returning the
// logical OIDs of matching videos. Catalog records live in heap files on
// the storage package's Shore-like substrate.
package vdbms

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokOp // = != < <= > >= ,  ( ) *
	tokKeyword
)

// String names the kind the way a parse error reports what it expected.
func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokOp:
		return "operator"
	case tokKeyword:
		return "keyword"
	default:
		return "?"
	}
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "CONTAINS": true, "SIMILAR": true, "TO": true, "LIMIT": true,
	"WITH": true, "QOS": true, "IN": true, "ORDER": true, "BY": true,
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src, returning a token list ending in tokEOF.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(rune(c)):
			l.lexNumber()
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexIdent()
		default:
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote, SQL style.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("vdbms: unterminated string at %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.') {
		l.pos++
	}
	// Resolutions like 320x240 lex as a single "number-ish" token.
	if l.pos < len(l.src) && (l.src[l.pos] == 'x' || l.src[l.pos] == 'X') {
		save := l.pos
		l.pos++
		digits := 0
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.pos++
			digits++
		}
		if digits == 0 {
			l.pos = save
		}
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' && c != '-' {
			break
		}
		l.pos++
	}
	text := l.src[start:l.pos]
	if keywords[strings.ToUpper(text)] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: strings.ToUpper(text), pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: text, pos: start})
	}
}

func (l *lexer) lexOp() error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>":
		l.toks = append(l.toks, token{kind: tokOp, text: two, pos: l.pos})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', ',', '(', ')', '*':
		l.toks = append(l.toks, token{kind: tokOp, text: string(c), pos: l.pos})
		l.pos++
		return nil
	}
	return fmt.Errorf("vdbms: unexpected character %q at %d", c, l.pos)
}
