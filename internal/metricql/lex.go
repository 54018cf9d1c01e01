// Package metricql implements the derived-metrics expression engine: a
// small query language over PCP metric sources, the analogue of PCP's
// derived metrics and the expression core of pmie/pmrep. Expressions
// name metrics (with glob expansion over the source's namespace and an
// alias table), combine them with arithmetic, and apply functions with
// counter semantics — rate() and delta() from consecutive fetches with
// monotonic-wrap correction, sum/avg/min/max vector aggregation, and
// windowed avg_over/max_over for range evaluation over live streams or
// archive replays.
//
// The same Engine evaluates against any metric source — a live
// pcp.Client, a pmproxy connection, an archive.Recorder tee, or an
// archive.Replay — so a consumer asks for
//
//	sum(rate(nest.mba*.read_bytes))
//
// once, instead of fetching 16 raw counters and doing the math itself.
//
// Every node of a bound expression evaluates into storage it owns, so a
// warm step of a bound panel allocates nothing here; the values an
// evaluation returns stay valid until the next evaluation on the same
// engine, and a caller keeping one copies its Vals.
package metricql

import (
	"fmt"
	"strconv"
	"strings"
)

// Limits on accepted expressions; both exist so hostile input (the
// parser is fuzzed) cannot force pathological work.
const (
	maxExprBytes = 1 << 16
	maxDepth     = 200
)

// SyntaxError describes a parse failure with its byte offset.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("metricql: %s (at offset %d)", e.Msg, e.Pos)
}

func errAt(pos int, format string, args ...interface{}) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNumber
	tokDuration
	tokName // metric name/pattern or function name
	tokLParen
	tokRParen
	tokComma
	tokPlus
	tokMinus
	tokStar
	tokSlash
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of expression"
	case tokNumber:
		return "number"
	case tokDuration:
		return "duration"
	case tokName:
		return "name"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	}
	return "token"
}

type token struct {
	kind tokenKind
	text string
	pos  int
	num  float64 // tokNumber
	dur  int64   // tokDuration, nanoseconds
}

// isNameChar reports whether c may appear inside a metric name or glob
// pattern. '-' is excluded (it is the subtraction operator); ranges like
// [0-7] are handled by the bracket scan in scanName. ':' is the
// federated node-label separator (node003:mem.read_bw).
func isNameChar(c byte) bool {
	return c == '.' || c == '_' || c == '*' || c == '?' || c == ':' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

func isNameStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

type lexer struct {
	src string
	i   int
}

func (l *lexer) next() (token, error) {
	for l.i < len(l.src) {
		switch l.src[l.i] {
		case ' ', '\t', '\n', '\r':
			l.i++
			continue
		}
		break
	}
	if l.i >= len(l.src) {
		return token{kind: tokEOF, pos: l.i}, nil
	}
	pos := l.i
	c := l.src[l.i]
	switch {
	case c == '(':
		l.i++
		return token{kind: tokLParen, text: "(", pos: pos}, nil
	case c == ')':
		l.i++
		return token{kind: tokRParen, text: ")", pos: pos}, nil
	case c == ',':
		l.i++
		return token{kind: tokComma, text: ",", pos: pos}, nil
	case c == '+':
		l.i++
		return token{kind: tokPlus, text: "+", pos: pos}, nil
	case c == '-':
		l.i++
		return token{kind: tokMinus, text: "-", pos: pos}, nil
	case c == '/':
		l.i++
		return token{kind: tokSlash, text: "/", pos: pos}, nil
	case c == '*':
		// A '*' that scanName reached inside a name is always a glob
		// (nest.mba*.read_bytes), so this branch only sees '*' at token
		// start. There it multiplies when the previous character is an
		// operand ("2*3", "(a)*b") or when no name follows ("a * b"),
		// and begins a leading-glob pattern otherwise ("sum(*bytes)").
		// Multiplying two metrics therefore needs spaces: "a * b".
		prevOperand := pos > 0 && (isNameChar(l.src[pos-1]) || l.src[pos-1] == ')' || l.src[pos-1] == ']')
		nextName := pos+1 < len(l.src) && (isNameChar(l.src[pos+1]) || l.src[pos+1] == '[')
		if !prevOperand && nextName {
			return l.scanName(pos)
		}
		l.i++
		return token{kind: tokStar, text: "*", pos: pos}, nil
	case isDigit(c):
		return l.scanNumber(pos)
	case isNameStart(c) || c == '[':
		return l.scanName(pos)
	}
	return token{}, errAt(pos, "unexpected character %q", rune(c))
}

// scanName consumes a metric name, glob pattern, or function name.
// Bracketed character classes ([0-7]) are consumed wholesale so '-' can
// appear inside them.
func (l *lexer) scanName(start int) (token, error) {
	for l.i < len(l.src) {
		c := l.src[l.i]
		if c == '[' {
			end := strings.IndexByte(l.src[l.i:], ']')
			if end < 0 {
				return token{}, errAt(l.i, "unterminated '[' in pattern")
			}
			l.i += end + 1
			continue
		}
		if !isNameChar(c) {
			break
		}
		l.i++
	}
	return token{kind: tokName, text: l.src[start:l.i], pos: start}, nil
}

// durationUnits maps a unit suffix to its length in nanoseconds.
var durationUnits = map[string]float64{
	"ns": 1,
	"us": 1e3,
	"ms": 1e6,
	"s":  1e9,
}

// scanNumber consumes a numeric literal (with optional fraction and
// exponent). A unit suffix adjacent to the number (100ms, 1.5s) makes it
// a duration literal.
func (l *lexer) scanNumber(start int) (token, error) {
	for l.i < len(l.src) && isDigit(l.src[l.i]) {
		l.i++
	}
	if l.i < len(l.src) && l.src[l.i] == '.' {
		l.i++
		for l.i < len(l.src) && isDigit(l.src[l.i]) {
			l.i++
		}
	}
	if l.i < len(l.src) && (l.src[l.i] == 'e' || l.src[l.i] == 'E') {
		j := l.i + 1
		if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
			j++
		}
		if j < len(l.src) && isDigit(l.src[j]) {
			l.i = j
			for l.i < len(l.src) && isDigit(l.src[l.i]) {
				l.i++
			}
		}
	}
	text := l.src[start:l.i]
	num, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, errAt(start, "bad number %q", text)
	}
	// Adjacent letters form a duration unit (or are an error: metric
	// names cannot start with a digit).
	us := l.i
	for l.i < len(l.src) && isNameStart(l.src[l.i]) {
		l.i++
	}
	if unit := l.src[us:l.i]; unit != "" {
		scale, ok := durationUnits[unit]
		if !ok {
			return token{}, errAt(us, "bad duration unit %q", unit)
		}
		return token{kind: tokDuration, text: l.src[start:l.i], pos: start, dur: int64(num * scale)}, nil
	}
	return token{kind: tokNumber, text: text, pos: start, num: num}, nil
}
