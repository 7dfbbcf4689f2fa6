// Package policy implements the Contra policy language of Figure 2:
// policies are path-ranking functions built from numeric ranks, path
// attributes, conditionals over regular path expressions and metric
// comparisons, and lexicographic tuples. The package provides the
// lexer, parser, static shape checks, rank semantics, and a
// ground-truth path evaluator used to validate the compiled protocol.
package policy

import (
	"fmt"
	"strings"
)

// Metric is a dynamic path attribute, written path.<attr> in policies.
type Metric uint8

// Supported path attributes.
const (
	Util Metric = iota // bottleneck utilization: max over links, in [0,1]
	Lat                // end-to-end latency: sum over links, in seconds
	Len                // hop count: number of links
	numMetrics
)

func (m Metric) String() string {
	switch m {
	case Util:
		return "util"
	case Lat:
		return "lat"
	case Len:
		return "len"
	}
	return fmt.Sprintf("metric(%d)", m)
}

// MetricByName maps the attribute name used in policy source to a
// Metric.
func MetricByName(s string) (Metric, bool) {
	switch s {
	case "util":
		return Util, true
	case "lat":
		return Lat, true
	case "len":
		return Len, true
	}
	return 0, false
}

// Combine folds one link's contribution into a partial path metric:
// max for utilization, sum for latency and hop count. This is the
// UPDATEMVEC operation probes apply per hop (§4.3).
func (m Metric) Combine(pathVal, linkVal float64) float64 {
	if m == Util {
		if linkVal > pathVal {
			return linkVal
		}
		return pathVal
	}
	return pathVal + linkVal
}

// Expr is a rank-valued policy expression.
type Expr interface {
	exprNode()
	String() string
}

// Const is a numeric rank literal.
type Const struct{ X float64 }

// Inf is the infinite rank: no path is worse; traffic is dropped if
// every candidate path ranks Inf.
type Inf struct{}

// Attr references a dynamic path attribute (path.util etc.).
type Attr struct{ M Metric }

// BinOp is a binary arithmetic operator.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
)

func (o BinOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	}
	return "?"
}

// Bin is a binary arithmetic expression over scalar ranks.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// If selects between two rank expressions based on a condition.
type If struct {
	Cond Cond
	Then Expr
	Else Expr
}

// Tuple ranks paths lexicographically by its elements.
type Tuple struct{ Elems []Expr }

func (*Const) exprNode() {}
func (*Inf) exprNode()   {}
func (*Attr) exprNode()  {}
func (*Bin) exprNode()   {}
func (*If) exprNode()    {}
func (*Tuple) exprNode() {}

func (e *Const) String() string {
	return trimFloat(e.X)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%g", x)
	return s
}

func (e *Inf) String() string  { return "inf" }
func (e *Attr) String() string { return "path." + e.M.String() }
func (e *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L.String(), e.Op, e.R.String())
}
func (e *If) String() string {
	// Always parenthesized so that printing inside a binary expression
	// reparses with the same structure.
	return fmt.Sprintf("(if %s then %s else %s)", e.Cond.String(), e.Then.String(), e.Else.String())
}
func (e *Tuple) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Cond is a boolean test.
type Cond interface {
	condNode()
	String() string
}

// Match tests whether the path matches a regular path expression. ID
// indexes Policy.Regexes after resolution (-1 before).
type Match struct {
	R  Regex
	ID int
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	LT CmpOp = iota
	LE
	GT
	GE
	EQ
	NE
)

func (o CmpOp) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	}
	return "?"
}

// Eval applies the comparison to two floats.
func (o CmpOp) Eval(l, r float64) bool {
	switch o {
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	case EQ:
		return l == r
	case NE:
		return l != r
	}
	return false
}

// Cmp compares two scalar expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Not negates a condition.
type Not struct{ C Cond }

// And is conjunction.
type And struct{ L, R Cond }

// Or is disjunction.
type Or struct{ L, R Cond }

func (*Match) condNode() {}
func (*Cmp) condNode()   {}
func (*Not) condNode()   {}
func (*And) condNode()   {}
func (*Or) condNode()    {}

func (c *Match) String() string { return c.R.String() }
func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L.String(), c.Op, c.R.String())
}
func (c *Not) String() string { return "not (" + c.C.String() + ")" }
func (c *And) String() string { return "(" + c.L.String() + " and " + c.R.String() + ")" }
func (c *Or) String() string  { return "(" + c.L.String() + " or " + c.R.String() + ")" }

// Regex is a regular path expression over switch names (Figure 2's
// "regular paths"). The symbol "." matches any single switch.
type Regex interface {
	regexNode()
	String() string
}

// RSym matches one specific switch by name.
type RSym struct{ Name string }

// RDot matches any single switch.
type RDot struct{}

// RCat is concatenation.
type RCat struct{ L, R Regex }

// RAlt is alternation (written + in the paper).
type RAlt struct{ L, R Regex }

// RStar is Kleene star.
type RStar struct{ X Regex }

func (*RSym) regexNode()  {}
func (*RDot) regexNode()  {}
func (*RCat) regexNode()  {}
func (*RAlt) regexNode()  {}
func (*RStar) regexNode() {}

func (r *RSym) String() string { return r.Name }
func (*RDot) String() string   { return "." }
func (r *RCat) String() string { return r.L.String() + " " + r.R.String() }
func (r *RAlt) String() string {
	return "(" + r.L.String() + " + " + r.R.String() + ")"
}
func (r *RStar) String() string {
	switch r.X.(type) {
	case *RSym, *RDot:
		return r.X.String() + "*"
	}
	return "(" + r.X.String() + ")*"
}

// Reverse returns the reversal of r. Probes travel from destination to
// sources, opposite to traffic, so the compiler matches probe paths
// against reversed regexes (§4.1).
func Reverse(r Regex) Regex {
	switch x := r.(type) {
	case *RSym, *RDot:
		return r
	case *RCat:
		return &RCat{L: Reverse(x.R), R: Reverse(x.L)}
	case *RAlt:
		return &RAlt{L: Reverse(x.L), R: Reverse(x.R)}
	case *RStar:
		return &RStar{X: Reverse(x.X)}
	}
	panic("policy: unknown regex node")
}

// Policy is a parsed, resolved minimize(...) policy.
type Policy struct {
	Body    Expr
	Regexes []Regex  // distinct regexes, indexed by Match.ID
	Attrs   []Metric // distinct dynamic attributes used, sorted
	Width   int      // maximum rank tuple width
	Src     string   // original source text, if parsed
}

// String renders the policy as source.
func (p *Policy) String() string {
	return "minimize(" + p.Body.String() + ")"
}

// UsesAttr reports whether the policy reads the given attribute.
func (p *Policy) UsesAttr(m Metric) bool {
	for _, a := range p.Attrs {
		if a == m {
			return true
		}
	}
	return false
}

// resolve walks the AST, interning distinct regexes (by printed form)
// into p.Regexes and assigning Match.ID, collecting attributes, and
// computing the rank width.
func (p *Policy) resolve() error {
	byStr := make(map[string]int)
	attrs := make(map[Metric]bool)

	var exprWidth func(Expr) (int, error)
	var walkCond func(Cond) error

	walkExprScalar := func(e Expr) error {
		w, err := exprWidth(e)
		if err != nil {
			return err
		}
		if w != 1 {
			return fmt.Errorf("policy: tuple used where scalar required: %s", e.String())
		}
		return nil
	}

	exprWidth = func(e Expr) (int, error) {
		switch x := e.(type) {
		case *Const:
			return 1, nil
		case *Inf:
			return 1, nil
		case *Attr:
			if x.M >= numMetrics {
				return 0, fmt.Errorf("policy: unknown attribute %v", x.M)
			}
			attrs[x.M] = true
			return 1, nil
		case *Bin:
			if err := walkExprScalar(x.L); err != nil {
				return 0, err
			}
			if err := walkExprScalar(x.R); err != nil {
				return 0, err
			}
			return 1, nil
		case *If:
			if err := walkCond(x.Cond); err != nil {
				return 0, err
			}
			wt, err := exprWidth(x.Then)
			if err != nil {
				return 0, err
			}
			we, err := exprWidth(x.Else)
			if err != nil {
				return 0, err
			}
			if we > wt {
				wt = we
			}
			return wt, nil
		case *Tuple:
			if len(x.Elems) == 0 {
				return 0, fmt.Errorf("policy: empty tuple")
			}
			w := 0
			for _, el := range x.Elems {
				ew, err := exprWidth(el)
				if err != nil {
					return 0, err
				}
				w += ew
			}
			return w, nil
		}
		return 0, fmt.Errorf("policy: unknown expression node %T", e)
	}

	walkCond = func(c Cond) error {
		switch x := c.(type) {
		case *Match:
			key := x.R.String()
			id, ok := byStr[key]
			if !ok {
				id = len(p.Regexes)
				byStr[key] = id
				p.Regexes = append(p.Regexes, x.R)
			}
			x.ID = id
			return nil
		case *Cmp:
			if err := walkExprScalar(x.L); err != nil {
				return err
			}
			return walkExprScalar(x.R)
		case *Not:
			return walkCond(x.C)
		case *And:
			if err := walkCond(x.L); err != nil {
				return err
			}
			return walkCond(x.R)
		case *Or:
			if err := walkCond(x.L); err != nil {
				return err
			}
			return walkCond(x.R)
		}
		return fmt.Errorf("policy: unknown condition node %T", c)
	}

	w, err := exprWidth(p.Body)
	if err != nil {
		return err
	}
	p.Width = w
	p.Attrs = p.Attrs[:0]
	for m := Metric(0); m < numMetrics; m++ {
		if attrs[m] {
			p.Attrs = append(p.Attrs, m)
		}
	}
	return nil
}

// New builds a policy from an already-constructed AST (used by the
// catalog and tests), running resolution and shape checks.
func New(body Expr) (*Policy, error) {
	p := &Policy{Body: body}
	if err := p.resolve(); err != nil {
		return nil, err
	}
	p.Src = p.String()
	return p, nil
}
