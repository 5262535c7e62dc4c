// Package uql implements UQL, a small unified query language over the
// UDBMS engine — the extension the paper motivates by noting that "no
// standard multi-model query language [is] available now". A UQL query
// seeds from any model, filters on dotted paths, joins across models,
// sorts, limits and projects:
//
//	FOR c IN customer
//	  FILTER c.city == "Helsinki" AND c.age >= 30
//	  JOIN o IN orders ON o.customer_id == c.id
//	  SORT c.age DESC
//	  LIMIT 10
//	  RETURN c.name, c.age, o
//
// Sources resolve against the engine catalog: a relational table, a
// document collection, or GRAPH(label) for vertices. Queries compile
// to the engine's Pipeline, so every stage reads one snapshot.
//
// # Execution
//
// Queries compile to the engine's streaming Pipeline operators rather
// than interpreting stages over materialized row sets:
//
//   - FILTER clauses that precede every other stage touch only the
//     seed source; each conjunct with an exact store translation is
//     pushed into the seed scan as a document.Filter or
//     relational.Expr (engaging path/column indexes), and the rest
//     stay behind as residual row filters. The translation preserves
//     UQL semantics exactly: a missing path reads as Null and
//     comparisons follow mmvalue.Compare, so e.g. `c.age < 30` still
//     matches documents without an age and `c.name != "x"` matches
//     null names, even when served by a store predicate.
//   - JOIN stages run on the executor's joins: index probes while they
//     are cheaper than a build, else one cached hash build.
//   - SORT is a blocking operator; LIMIT short-circuits the upstream
//     operators including the store scans; RETURN projections stream
//     and clone only the projected values.
package uql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokOp // == != <= >= < > ( ) ,
	tokLParen
	tokRParen
	tokComma
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"FOR": true, "IN": true, "FILTER": true, "JOIN": true, "ON": true,
	"LIMIT": true, "SORT": true, "ASC": true, "DESC": true, "RETURN": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "LIKE": true,
	"GRAPH": true, "TRUE": true, "FALSE": true, "NULL": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == ',':
			l.emit(tokComma, ",")
		case c == '"' || c == '\'':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9' || (c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
			l.lexNumber()
		case isIdentStart(rune(c)):
			l.lexIdent()
		case strings.ContainsRune("=!<>", rune(c)):
			l.lexOp()
		default:
			return nil, fmt.Errorf("uql: unexpected character %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func (l *lexer) emit(k tokenKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
	l.pos += len(text)
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			switch next {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteByte(next)
			}
			l.pos += 2
			continue
		}
		if c == quote {
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("uql: unterminated string at %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if keywords[strings.ToUpper(text)] && !strings.Contains(text, ".") {
		l.toks = append(l.toks, token{kind: tokKeyword, text: strings.ToUpper(text), pos: start})
		return
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: text, pos: start})
}

func (l *lexer) lexOp() {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=":
		l.pos += 2
		l.toks = append(l.toks, token{kind: tokOp, text: two, pos: start})
		return
	}
	c := l.src[l.pos]
	if c == '<' || c == '>' {
		l.pos++
		l.toks = append(l.toks, token{kind: tokOp, text: string(c), pos: start})
		return
	}
	// '=' alone or '!' alone are errors surfaced by the parser.
	l.pos++
	l.toks = append(l.toks, token{kind: tokOp, text: string(c), pos: start})
}
