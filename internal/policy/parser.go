package policy

import (
	"fmt"
	"strings"
)

// ParseOptions configure parsing.
type ParseOptions struct {
	// Symbols, when non-empty, is the set of valid switch names (the
	// regex alphabet, normally the topology's switch names). Unknown
	// identifiers in regex position are then rejected — unless they can
	// be split into a concatenation of known names, supporting the
	// paper's compact notation ".*XY.*" for the link X→Y.
	Symbols []string
}

// Parse parses policy source such as
//
//	minimize(if A .* then path.util else path.lat)
//
// following the grammar of Figure 2.
func Parse(src string, opts ...ParseOptions) (*Policy, error) {
	var opt ParseOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	pr := &parser{toks: toks, src: src}
	if len(opt.Symbols) > 0 {
		pr.symbols = make(map[string]bool, len(opt.Symbols))
		for _, s := range opt.Symbols {
			pr.symbols[s] = true
		}
	}
	body, err := pr.parsePolicy()
	if err != nil {
		return nil, err
	}
	p := &Policy{Body: body, Src: strings.TrimSpace(src)}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse is Parse that panics on error, for tests and the catalog.
func MustParse(src string, opts ...ParseOptions) *Policy {
	p, err := Parse(src, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks    []token
	pos     int
	src     string
	symbols map[string]bool // nil means any identifier is a symbol

	// condAt remembers parseCondAtom's outcome by start position.
	condAt map[int]condMemo
}

type condMemo struct {
	c   Cond
	err error
	end int // p.pos the attempt left behind
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(k tokKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errorf("expected %s, found %s", k, describe(t))
	}
	p.pos++
	return t, nil
}

func describe(t token) string {
	if t.text != "" {
		return fmt.Sprintf("%s %q", t.kind, t.text)
	}
	return t.kind.String()
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("policy: offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// parsePolicy := "minimize" "(" expr ")" EOF
func (p *parser) parsePolicy() (Expr, error) {
	if _, err := p.expect(tokMinimize); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEOF); err != nil {
		return nil, err
	}
	return e, nil
}

// parseExpr := mulExpr (('+'|'-') mulExpr)*
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().kind {
		case tokPlus:
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Bin{Op: Add, L: l, R: r}
		case tokMinus:
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Bin{Op: Sub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

// parseMul := primary ('*' primary)*
func (p *parser) parseMul() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokStar {
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: Mul, L: l, R: r}
	}
	return l, nil
}

// parsePrimary := NUMBER | 'inf' | 'path' '.' attr
//
//	| '(' expr (',' expr)* ')' | 'if' cond 'then' expr 'else' expr
//	| '-' primary
func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.cur(); t.kind {
	case tokNumber:
		p.next()
		return &Const{X: t.num}, nil
	case tokMinus:
		p.next()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: Sub, L: &Const{X: 0}, R: inner}, nil
	case tokInf:
		p.next()
		return &Inf{}, nil
	case tokPath:
		p.next()
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		id, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		m, ok := MetricByName(id.text)
		if !ok {
			return nil, fmt.Errorf("policy: offset %d: unknown attribute path.%s (want util, lat, or len)", id.pos, id.text)
		}
		return &Attr{M: m}, nil
	case tokLParen:
		p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind == tokComma {
			elems := []Expr{first}
			for p.cur().kind == tokComma {
				p.next()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &Tuple{Elems: elems}, nil
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return first, nil
	case tokIf:
		p.next()
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokThen); err != nil {
			return nil, err
		}
		thenE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokElse); err != nil {
			return nil, err
		}
		elseE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &If{Cond: c, Then: thenE, Else: elseE}, nil
	default:
		return nil, p.errorf("expected an expression, found %s", describe(t))
	}
}

// parseCond := andCond ('or' andCond)*
func (p *parser) parseCond() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOr {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

// parseAnd := notCond ('and' notCond)*
func (p *parser) parseAnd() (Cond, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAnd {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

// parseNot := 'not' parseNot | condAtom
func (p *parser) parseNot() (Cond, error) {
	if p.cur().kind == tokNot {
		p.next()
		c, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{C: c}, nil
	}
	return p.parseCondAtom()
}

// parseCondAtom disambiguates between metric comparisons, regex
// matches, and parenthesized conditions by ordered backtracking:
//
//  1. expr cmpOp expr (e.g. "path.util < .8")
//  2. a regular path expression (e.g. "A .* B", "(F1+F2)", ".*XY.*")
//  3. '(' cond ')'
//
// The orders matter: "path.util < .8" must not be parsed as a regex
// (it cannot be: 'path' is a keyword), and "(A + B) .*" must be tried
// as a regex before "(cond)" so the trailing concatenation is kept.
//
// A failed attempt can have parsed conditions of its own (an `if`
// inside a parenthesized expression) that the next attempt reaches
// again. The parse from a given position never changes, so each
// position's outcome is remembered: without that, every nesting level
// doubles the work and a 130-byte policy takes hours to reject.
func (p *parser) parseCondAtom() (Cond, error) {
	start := p.pos
	if m, ok := p.condAt[start]; ok {
		p.pos = m.end
		return m.c, m.err
	}
	c, err := p.condAtomAttempts()
	if p.condAt == nil {
		p.condAt = make(map[int]condMemo)
	}
	p.condAt[start] = condMemo{c: c, err: err, end: p.pos}
	return c, err
}

func (p *parser) condAtomAttempts() (Cond, error) {
	// Attempt 1: comparison.
	mark := p.pos
	if l, err := p.parseExpr(); err == nil {
		var op CmpOp
		ok := true
		switch p.cur().kind {
		case tokLT:
			op = LT
		case tokLE:
			op = LE
		case tokGT:
			op = GT
		case tokGE:
			op = GE
		case tokEQ:
			op = EQ
		case tokNE:
			op = NE
		default:
			ok = false
		}
		if ok {
			p.next()
			r, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Cmp{Op: op, L: l, R: r}, nil
		}
	}
	p.pos = mark

	// Attempt 2: regular path expression.
	if r, err := p.parseRegex(); err == nil {
		return &Match{R: r, ID: -1}, nil
	}
	p.pos = mark

	// Attempt 3: parenthesized condition.
	if p.cur().kind == tokLParen {
		p.next()
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errorf("expected a condition, found %s", describe(p.cur()))
}

// Regex grammar (the paper's "regular paths"):
//
//	regex := cat ('+' cat)*
//	cat   := rep rep*
//	rep   := atom '*'*
//	atom  := IDENT | '.' | '(' regex ')'
func (p *parser) parseRegex() (Regex, error) {
	l, err := p.parseRegexCat()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPlus {
		p.next()
		r, err := p.parseRegexCat()
		if err != nil {
			return nil, err
		}
		l = &RAlt{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseRegexCat() (Regex, error) {
	l, err := p.parseRegexRep()
	if err != nil {
		return nil, err
	}
	for p.regexAtomAhead() {
		r, err := p.parseRegexRep()
		if err != nil {
			return nil, err
		}
		l = &RCat{L: l, R: r}
	}
	return l, nil
}

// regexAtomAhead reports whether the next token could begin a regex
// atom (enabling concatenation by juxtaposition).
func (p *parser) regexAtomAhead() bool {
	switch p.cur().kind {
	case tokIdent, tokDot, tokLParen:
		return true
	}
	return false
}

func (p *parser) parseRegexRep() (Regex, error) {
	a, err := p.parseRegexAtom()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokStar {
		p.next()
		a = &RStar{X: a}
	}
	return a, nil
}

func (p *parser) parseRegexAtom() (Regex, error) {
	switch t := p.cur(); t.kind {
	case tokIdent:
		p.next()
		return p.symbolRegex(t)
	case tokDot:
		p.next()
		return &RDot{}, nil
	case tokLParen:
		p.next()
		r, err := p.parseRegex()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return r, nil
	default:
		return nil, p.errorf("expected a regex atom, found %s", describe(t))
	}
}

// symbolRegex turns an identifier token into a symbol, splitting run-on
// names like "XY" into the concatenation X Y when an alphabet is known
// (supporting the paper's ".*XY.*" link notation).
func (p *parser) symbolRegex(t token) (Regex, error) {
	if p.symbols == nil || p.symbols[t.text] {
		return &RSym{Name: t.text}, nil
	}
	parts, ok := splitSymbols(t.text, p.symbols)
	if !ok {
		return nil, fmt.Errorf("policy: offset %d: %q is not a switch name (nor a concatenation of switch names)", t.pos, t.text)
	}
	var r Regex = &RSym{Name: parts[0]}
	for _, s := range parts[1:] {
		r = &RCat{L: r, R: &RSym{Name: s}}
	}
	return r, nil
}

// splitSymbols greedily decomposes s into known symbols, with
// backtracking so e.g. alphabet {A, AB, B} can split "AAB" as A AB.
func splitSymbols(s string, symbols map[string]bool) ([]string, bool) {
	if s == "" {
		return nil, false
	}
	// Try longer prefixes first for the common single-letter case this
	// degenerates to one char at a time.
	for n := len(s); n >= 1; n-- {
		prefix := s[:n]
		if !symbols[prefix] {
			continue
		}
		if n == len(s) {
			return []string{prefix}, true
		}
		rest, ok := splitSymbols(s[n:], symbols)
		if ok {
			return append([]string{prefix}, rest...), true
		}
	}
	return nil, false
}
