package spec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Expr is a parsed guard expression, e.g. "new.c != cur.c" or
// "l >= 2 && dR <= 320". Expressions operate over control-parameter values
// (integers and enumeration symbols), support arithmetic, comparisons, and
// boolean connectives, and are evaluated against an EvalEnv that resolves
// identifiers.
//
// Identifiers that do not resolve in the environment evaluate to
// enumeration literals of their own name, so guards can be written in the
// natural Figure-2 style (c == lzw) without quoting; Validate still checks
// that every identifier is either a parameter or a symbol of some enum
// domain.
type Expr struct {
	root node
	src  string
}

// EvalEnv resolves an identifier to a control-parameter value.
type EvalEnv func(ident string) (Value, bool)

// GuardEnv builds an EvalEnv over a single configuration (task guards).
func GuardEnv(cfg Config) EvalEnv {
	return func(id string) (Value, bool) {
		v, ok := cfg[id]
		return v, ok
	}
}

// TransitionEnv builds an EvalEnv for transition guards: bare identifiers
// and cur.X resolve in the current configuration, new.X in the next.
func TransitionEnv(cur, next Config) EvalEnv {
	return func(id string) (Value, bool) {
		switch {
		case strings.HasPrefix(id, "cur."):
			v, ok := cur[id[4:]]
			return v, ok
		case strings.HasPrefix(id, "new."):
			v, ok := next[id[4:]]
			return v, ok
		default:
			v, ok := cur[id]
			return v, ok
		}
	}
}

// Result is the value of an evaluated expression.
type Result struct {
	isBool bool
	isStr  bool
	b      bool
	f      float64
	s      string
}

func boolResult(b bool) Result   { return Result{isBool: true, b: b} }
func numResult(f float64) Result { return Result{f: f} }
func strResult(s string) Result  { return Result{isStr: true, s: s} }

// Bool interprets the result as a truth value: booleans directly, numbers
// as non-zero, strings as non-empty.
func (r Result) Bool() bool {
	switch {
	case r.isBool:
		return r.b
	case r.isStr:
		return r.s != ""
	default:
		return r.f != 0
	}
}

// Num returns the numeric value (booleans as 0/1; strings report ok=false).
func (r Result) Num() (float64, bool) {
	switch {
	case r.isBool:
		if r.b {
			return 1, true
		}
		return 0, true
	case r.isStr:
		return 0, false
	default:
		return r.f, true
	}
}

// Str returns the string value if the result is a string.
func (r Result) Str() (string, bool) { return r.s, r.isStr }

// ---- AST ----

type node interface {
	eval(env EvalEnv) (Result, error)
	idents(set map[string]bool)
	render(sb *strings.Builder)
}

type litNum struct{ v float64 }

func (n litNum) eval(EvalEnv) (Result, error) { return numResult(n.v), nil }
func (n litNum) idents(map[string]bool)       {}
func (n litNum) render(sb *strings.Builder)   { fmt.Fprintf(sb, "%g", n.v) }

type litStr struct{ v string }

func (n litStr) eval(EvalEnv) (Result, error) { return strResult(n.v), nil }
func (n litStr) idents(map[string]bool)       {}
func (n litStr) render(sb *strings.Builder)   { fmt.Fprintf(sb, "%q", n.v) }

type identNode struct{ name string }

func (n identNode) eval(env EvalEnv) (Result, error) {
	if v, ok := env(n.name); ok {
		if f, isNum := v.Float(); isNum {
			return numResult(f), nil
		}
		return strResult(v.S), nil
	}
	// Unresolved identifier: an enumeration literal.
	return strResult(n.name), nil
}
func (n identNode) idents(set map[string]bool) { set[n.name] = true }
func (n identNode) render(sb *strings.Builder) { sb.WriteString(n.name) }

type unaryNode struct {
	op string
	x  node
}

func (n unaryNode) eval(env EvalEnv) (Result, error) {
	v, err := n.x.eval(env)
	if err != nil {
		return Result{}, err
	}
	switch n.op {
	case "!":
		return boolResult(!v.Bool()), nil
	case "-":
		f, ok := v.Num()
		if !ok {
			return Result{}, fmt.Errorf("spec: unary - applied to string")
		}
		return numResult(-f), nil
	}
	return Result{}, fmt.Errorf("spec: unknown unary operator %q", n.op)
}
func (n unaryNode) idents(set map[string]bool) { n.x.idents(set) }
func (n unaryNode) render(sb *strings.Builder) {
	sb.WriteString(n.op)
	n.x.render(sb)
}

type binaryNode struct {
	op   string
	l, r node
}

func (n binaryNode) idents(set map[string]bool) {
	n.l.idents(set)
	n.r.idents(set)
}

func (n binaryNode) render(sb *strings.Builder) {
	sb.WriteByte('(')
	n.l.render(sb)
	sb.WriteByte(' ')
	sb.WriteString(n.op)
	sb.WriteByte(' ')
	n.r.render(sb)
	sb.WriteByte(')')
}

func (n binaryNode) eval(env EvalEnv) (Result, error) {
	// Short-circuit boolean connectives.
	switch n.op {
	case "&&":
		l, err := n.l.eval(env)
		if err != nil {
			return Result{}, err
		}
		if !l.Bool() {
			return boolResult(false), nil
		}
		r, err := n.r.eval(env)
		if err != nil {
			return Result{}, err
		}
		return boolResult(r.Bool()), nil
	case "||":
		l, err := n.l.eval(env)
		if err != nil {
			return Result{}, err
		}
		if l.Bool() {
			return boolResult(true), nil
		}
		r, err := n.r.eval(env)
		if err != nil {
			return Result{}, err
		}
		return boolResult(r.Bool()), nil
	}
	l, err := n.l.eval(env)
	if err != nil {
		return Result{}, err
	}
	r, err := n.r.eval(env)
	if err != nil {
		return Result{}, err
	}
	switch n.op {
	case "==", "!=":
		eq, err := equalResults(l, r)
		if err != nil {
			return Result{}, err
		}
		if n.op == "!=" {
			eq = !eq
		}
		return boolResult(eq), nil
	}
	lf, lok := l.Num()
	rf, rok := r.Num()
	if !lok || !rok {
		return Result{}, fmt.Errorf("spec: operator %s requires numeric operands", n.op)
	}
	switch n.op {
	case "<":
		return boolResult(lf < rf), nil
	case "<=":
		return boolResult(lf <= rf), nil
	case ">":
		return boolResult(lf > rf), nil
	case ">=":
		return boolResult(lf >= rf), nil
	case "+":
		return numResult(lf + rf), nil
	case "-":
		return numResult(lf - rf), nil
	case "*":
		return numResult(lf * rf), nil
	case "/":
		if rf == 0 {
			return Result{}, fmt.Errorf("spec: division by zero")
		}
		return numResult(lf / rf), nil
	case "%":
		if rf == 0 {
			return Result{}, fmt.Errorf("spec: modulo by zero")
		}
		return numResult(float64(int64(lf) % int64(rf))), nil
	}
	return Result{}, fmt.Errorf("spec: unknown operator %q", n.op)
}

func equalResults(l, r Result) (bool, error) {
	ls, lIsStr := l.Str()
	rs, rIsStr := r.Str()
	if lIsStr && rIsStr {
		return ls == rs, nil
	}
	if lIsStr != rIsStr {
		return false, nil // string never equals number
	}
	lf, _ := l.Num()
	rf, _ := r.Num()
	return lf == rf, nil
}

// ---- Lexer & parser ----

type exprToken struct {
	kind string // "ident", "num", "str", "op", "eof"
	text string
	num  float64
	pos  int
}

type exprLexer struct {
	src  string
	pos  int
	toks []exprToken
}

func lexExpr(src string) ([]exprToken, error) {
	l := &exprLexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case unicode.IsDigit(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && (isDigitByte(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
				((l.src[l.pos] == '+' || l.src[l.pos] == '-') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
				l.pos++
			}
			f, err := strconv.ParseFloat(l.src[start:l.pos], 64)
			if err != nil {
				return nil, fmt.Errorf("spec: bad number at %d: %v", start, err)
			}
			l.toks = append(l.toks, exprToken{kind: "num", num: f, text: l.src[start:l.pos], pos: start})
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
				l.pos++
			}
			// Dotted identifiers: cur.c, new.dR, client.cpu
			for l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && isIdentStart(l.src[l.pos+1]) {
				l.pos++
				for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
					l.pos++
				}
			}
			l.toks = append(l.toks, exprToken{kind: "ident", text: l.src[start:l.pos], pos: start})
		case c == '"':
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] != '"' {
				l.pos++
			}
			if l.pos >= len(l.src) {
				return nil, fmt.Errorf("spec: unterminated string at %d", start-1)
			}
			l.toks = append(l.toks, exprToken{kind: "str", text: l.src[start:l.pos], pos: start})
			l.pos++
		default:
			two := ""
			if l.pos+1 < len(l.src) {
				two = l.src[l.pos : l.pos+2]
			}
			switch two {
			case "&&", "||", "==", "!=", "<=", ">=":
				l.toks = append(l.toks, exprToken{kind: "op", text: two, pos: l.pos})
				l.pos += 2
				continue
			}
			switch c {
			case '!', '<', '>', '+', '-', '*', '/', '%', '(', ')':
				l.toks = append(l.toks, exprToken{kind: "op", text: string(c), pos: l.pos})
				l.pos++
			default:
				return nil, fmt.Errorf("spec: unexpected character %q at %d", c, l.pos)
			}
		}
	}
	l.toks = append(l.toks, exprToken{kind: "eof", pos: len(src)})
	return l.toks, nil
}

func isDigitByte(c byte) bool  { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentByte(c byte) bool  { return c == '_' || unicode.IsLetter(rune(c)) || isDigitByte(c) }

type exprParser struct {
	toks []exprToken
	i    int
}

func (p *exprParser) peek() exprToken { return p.toks[p.i] }
func (p *exprParser) next() exprToken { t := p.toks[p.i]; p.i++; return t }

func (p *exprParser) accept(op string) bool {
	if p.peek().kind == "op" && p.peek().text == op {
		p.i++
		return true
	}
	return false
}

// ParseExpr parses a guard expression.
func ParseExpr(src string) (*Expr, error) {
	toks, err := lexExpr(src)
	if err != nil {
		return nil, err
	}
	p := &exprParser{toks: toks}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != "eof" {
		return nil, fmt.Errorf("spec: trailing input at %d: %q", p.peek().pos, p.peek().text)
	}
	return &Expr{root: n, src: src}, nil
}

func (p *exprParser) parseOr() (node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binaryNode{op: "||", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseAnd() (node, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = binaryNode{op: "&&", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseComparison() (node, error) {
	l, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.accept(op) {
			r, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			return binaryNode{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *exprParser) parseSum() (node, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = binaryNode{op: "+", l: l, r: r}
		case p.accept("-"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = binaryNode{op: "-", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parseTerm() (node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binaryNode{op: "*", l: l, r: r}
		case p.accept("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binaryNode{op: "/", l: l, r: r}
		case p.accept("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binaryNode{op: "%", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parseUnary() (node, error) {
	if p.accept("!") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryNode{op: "!", x: x}, nil
	}
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryNode{op: "-", x: x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (node, error) {
	t := p.peek()
	switch t.kind {
	case "num":
		p.next()
		return litNum{v: t.num}, nil
	case "str":
		p.next()
		return litStr{v: t.text}, nil
	case "ident":
		p.next()
		return identNode{name: t.text}, nil
	case "op":
		if t.text == "(" {
			p.next()
			n, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.accept(")") {
				return nil, fmt.Errorf("spec: missing ) at %d", p.peek().pos)
			}
			return n, nil
		}
	}
	return nil, fmt.Errorf("spec: unexpected token %q at %d", t.text, t.pos)
}

// Eval evaluates the expression in the given environment.
func (e *Expr) Eval(env EvalEnv) (Result, error) { return e.root.eval(env) }

// Idents returns the sorted set of identifiers referenced by the
// expression.
func (e *Expr) Idents() []string {
	set := map[string]bool{}
	e.root.idents(set)
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// String renders a normalized (fully parenthesized) form.
func (e *Expr) String() string {
	var sb strings.Builder
	e.root.render(&sb)
	return sb.String()
}
