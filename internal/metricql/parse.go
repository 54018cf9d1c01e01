package metricql

import (
	"strconv"
	"strings"
)

type nodeKind int

const (
	nodeNum nodeKind = iota
	nodeMetric
	nodeUnary
	nodeBinary
	nodeCall
)

// node is one AST vertex. Parse produces the pure syntactic fields;
// Engine.Bind builds the bound copy, interned per engine by key, that
// also holds the bound state.
type node struct {
	kind    nodeKind
	num     float64 // nodeNum
	pattern string  // nodeMetric: name or glob pattern
	op      byte    // nodeUnary ('-'), nodeBinary ('+','-','*','/')
	fn      string  // nodeCall
	window  int64   // nodeCall with a window argument, nanoseconds
	by      string  // nodeCall aggregate with a "by (label)" clause
	args    []*node // nodeUnary/nodeBinary operands, nodeCall arguments

	// Bound state (set by Engine.Bind):
	sel   []selection // nodeMetric: expanded instances
	names []string    // nodeMetric: their names, shared by the values served
	key   string      // canonical bound form, the interning key
	val   Value       // the memoized value, current while gen is the engine's
	gen   uint64
	buf   []float64 // the storage val.Vals lives in, rewritten only when gen moves
	hist  history   // nodeCall with a window: the sample ring
}

// funcSpec describes one callable function.
type funcSpec struct {
	metricArg bool // argument must be a plain metric pattern (rate, delta)
	window    bool // takes a trailing duration argument (avg_over, max_over)
	grouping  bool // aggregate: accepts a trailing "by (node)" clause
}

var funcs = map[string]funcSpec{
	"rate":     {metricArg: true},
	"delta":    {metricArg: true},
	"sum":      {grouping: true},
	"avg":      {grouping: true},
	"min":      {grouping: true},
	"max":      {grouping: true},
	"avg_over": {window: true},
	"max_over": {window: true},
	"min_over": {window: true},
	"rate_over": {
		metricArg: true,
		window:    true,
	},
}

// Expr is a parsed expression. An Expr is immutable after Parse;
// Engine.Bind builds bound nodes of its own from it.
type Expr struct {
	root *node
	src  string
}

// Parse compiles src into an expression AST. The returned error is a
// *SyntaxError on malformed input; Parse never panics (it is fuzzed).
func Parse(src string) (*Expr, error) {
	if len(src) > maxExprBytes {
		return nil, errAt(0, "expression too long (%d bytes, max %d)", len(src), maxExprBytes)
	}
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	root, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, errAt(p.tok.pos, "unexpected %s after expression", p.tok.kind)
	}
	return &Expr{root: root, src: src}, nil
}

// String returns the canonical fully-parenthesized form of the
// expression. Canonical forms reparse to themselves (asserted by the
// fuzz target); with metric PMIDs added they are the keys bound nodes
// are interned by.
func (e *Expr) String() string {
	var b strings.Builder
	writeNode(&b, e.root)
	return b.String()
}

// Instant reports whether the expression's value is an instantaneous
// level rather than a monotonic counter: true if any subexpression
// applies rate, delta, or a windowed aggregate. The derived PAPI
// component uses this to pick papi.Instant semantics.
func (e *Expr) Instant() bool {
	return instantNode(e.root)
}

func instantNode(n *node) bool {
	if n.kind == nodeCall {
		switch n.fn {
		case "rate", "delta", "avg_over", "max_over", "min_over", "rate_over":
			return true
		}
	}
	for _, a := range n.args {
		if instantNode(a) {
			return true
		}
	}
	return false
}

func writeNode(b *strings.Builder, n *node) {
	switch n.kind {
	case nodeNum:
		b.WriteString(strconv.FormatFloat(n.num, 'g', -1, 64))
	case nodeMetric:
		b.WriteString(n.pattern)
	case nodeUnary:
		b.WriteString("(-")
		writeNode(b, n.args[0])
		b.WriteByte(')')
	case nodeBinary:
		b.WriteByte('(')
		writeNode(b, n.args[0])
		b.WriteByte(' ')
		b.WriteByte(n.op)
		b.WriteByte(' ')
		writeNode(b, n.args[1])
		b.WriteByte(')')
	case nodeCall:
		b.WriteString(n.fn)
		b.WriteByte('(')
		writeNode(b, n.args[0])
		if n.window != 0 {
			b.WriteString(", ")
			b.WriteString(strconv.FormatInt(n.window, 10))
			b.WriteString("ns")
		}
		b.WriteByte(')')
		if n.by != "" {
			b.WriteString(" by (")
			b.WriteString(n.by)
			b.WriteByte(')')
		}
	}
}

type parser struct {
	lex   lexer
	tok   token
	depth int
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, errAt(p.tok.pos, "expected %s, found %s", k, p.tok.kind)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// parseExpr parses sum-precedence: prod (('+'|'-') prod)*.
func (p *parser) parseExpr(depth int) (*node, error) {
	if depth > maxDepth {
		return nil, errAt(p.tok.pos, "expression too deeply nested")
	}
	left, err := p.parseProd(depth + 1)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := byte('+')
		if p.tok.kind == tokMinus {
			op = '-'
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseProd(depth + 1)
		if err != nil {
			return nil, err
		}
		left = &node{kind: nodeBinary, op: op, args: []*node{left, right}}
	}
	return left, nil
}

// parseProd parses product-precedence: unary (('*'|'/') unary)*.
func (p *parser) parseProd(depth int) (*node, error) {
	if depth > maxDepth {
		return nil, errAt(p.tok.pos, "expression too deeply nested")
	}
	left, err := p.parseUnary(depth + 1)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := byte('*')
		if p.tok.kind == tokSlash {
			op = '/'
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary(depth + 1)
		if err != nil {
			return nil, err
		}
		left = &node{kind: nodeBinary, op: op, args: []*node{left, right}}
	}
	return left, nil
}

func (p *parser) parseUnary(depth int) (*node, error) {
	if depth > maxDepth {
		return nil, errAt(p.tok.pos, "expression too deeply nested")
	}
	if p.tok.kind == tokMinus {
		if err := p.advance(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary(depth + 1)
		if err != nil {
			return nil, err
		}
		// Fold negation of a literal so "-3" canonicalizes to a number.
		if arg.kind == nodeNum {
			return &node{kind: nodeNum, num: -arg.num}, nil
		}
		return &node{kind: nodeUnary, op: '-', args: []*node{arg}}, nil
	}
	return p.parseAtom(depth + 1)
}

func (p *parser) parseAtom(depth int) (*node, error) {
	if depth > maxDepth {
		return nil, errAt(p.tok.pos, "expression too deeply nested")
	}
	switch p.tok.kind {
	case tokNumber:
		n := &node{kind: nodeNum, num: p.tok.num}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return n, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case tokName:
		name := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			return p.parseCall(name, depth+1)
		}
		return &node{kind: nodeMetric, pattern: name.text}, nil
	case tokDuration:
		return nil, errAt(p.tok.pos, "duration literal %q only valid as a window argument", p.tok.text)
	}
	return nil, errAt(p.tok.pos, "expected expression, found %s", p.tok.kind)
}

func (p *parser) parseCall(name token, depth int) (*node, error) {
	spec, ok := funcs[name.text]
	if !ok {
		return nil, errAt(name.pos, "unknown function %q", name.text)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr(depth + 1)
	if err != nil {
		return nil, err
	}
	n := &node{kind: nodeCall, fn: name.text, args: []*node{arg}}
	if spec.metricArg && arg.kind != nodeMetric {
		return nil, errAt(name.pos, "%s() requires a metric name or pattern argument", name.text)
	}
	if spec.window {
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		if p.tok.kind != tokDuration {
			return nil, errAt(p.tok.pos, "%s() window must be a duration (e.g. 500ms), found %s", name.text, p.tok.kind)
		}
		if p.tok.dur <= 0 {
			return nil, errAt(p.tok.pos, "%s() window must be positive", name.text)
		}
		n.window = p.tok.dur
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else if p.tok.kind == tokComma {
		return nil, errAt(p.tok.pos, "%s() takes exactly one argument", name.text)
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	// "by" is a contextual keyword: it only means grouping immediately
	// after an aggregate's closing paren, so metrics named "by" still work.
	if spec.grouping && p.tok.kind == tokName && p.tok.text == "by" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		lbl, err := p.expect(tokName)
		if err != nil {
			return nil, err
		}
		if lbl.text != "node" {
			return nil, errAt(lbl.pos, "unknown grouping label %q: only the node label exists", lbl.text)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		n.by = lbl.text
	}
	return n, nil
}
