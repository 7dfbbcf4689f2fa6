package policy

import (
	"fmt"
	"math"
	"strings"
)

// Rank is the value a policy assigns to a path: either the infinite
// rank or a lexicographically ordered vector of numbers. minimize()
// semantics: smaller ranks are better, and Inf is the unique worst
// rank (no path is preferred to it, and traffic is dropped rather than
// sent along an Inf path).
type Rank struct {
	Inf bool
	V   []float64
}

// Finite builds a finite rank from values.
func Finite(vals ...float64) Rank { return Rank{V: vals} }

// Infinite returns the infinite rank.
func Infinite() Rank { return Rank{Inf: true} }

// IsInf reports whether r is the infinite rank.
func (r Rank) IsInf() bool { return r.Inf }

// Cmp compares two ranks: -1 if r is better (smaller), +1 if worse,
// 0 if equal. Vectors of different lengths are compared by padding the
// shorter with zeros, so Finite(3) == Finite(3,0) < Finite(3,1).
func (r Rank) Cmp(o Rank) int {
	switch {
	case r.Inf && o.Inf:
		return 0
	case r.Inf:
		return 1
	case o.Inf:
		return -1
	}
	n := len(r.V)
	if len(o.V) > n {
		n = len(o.V)
	}
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(r.V) {
			a = r.V[i]
		}
		if i < len(o.V) {
			b = o.V[i]
		}
		if a < b {
			return -1
		}
		if a > b {
			return 1
		}
	}
	return 0
}

// Better reports whether r is strictly preferred to o.
func (r Rank) Better(o Rank) bool { return r.Cmp(o) < 0 }

// Equal reports rank equality.
func (r Rank) Equal(o Rank) bool { return r.Cmp(o) == 0 }

// String renders the rank.
func (r Rank) String() string {
	if r.Inf {
		return "inf"
	}
	if len(r.V) == 1 {
		return trimFloat(r.V[0])
	}
	parts := make([]string, len(r.V))
	for i, v := range r.V {
		parts[i] = trimFloat(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Env supplies the dynamic inputs needed to evaluate a policy
// expression for one candidate path: the value of each path attribute
// and the outcome of each (resolved) regex match.
type Env interface {
	Attr(Metric) float64
	Match(regexID int) bool
}

// MapEnv is a simple Env backed by explicit values; the zero value has
// all attributes 0 and all matches false.
type MapEnv struct {
	Attrs   map[Metric]float64
	Matches map[int]bool
}

// Attr implements Env.
func (e *MapEnv) Attr(m Metric) float64 { return e.Attrs[m] }

// Match implements Env.
func (e *MapEnv) Match(id int) bool { return e.Matches[id] }

// Eval computes the rank of a path under the policy given its
// environment. It is the reference semantics: the compiled protocol
// must agree with it (tested by comparing against brute-force path
// enumeration).
func (p *Policy) Eval(env Env) Rank {
	return evalExpr(p.Body, env)
}

func evalExpr(e Expr, env Env) Rank {
	switch x := e.(type) {
	case *Const:
		return Finite(x.X)
	case *Inf:
		return Infinite()
	case *Attr:
		return Finite(env.Attr(x.M))
	case *Bin:
		l := evalExpr(x.L, env)
		r := evalExpr(x.R, env)
		if l.Inf || r.Inf {
			// Arithmetic with the infinite rank is absorbing, except
			// that inf - inf has no sensible value; treat it as inf.
			return Infinite()
		}
		a, b := l.V[0], r.V[0]
		switch x.Op {
		case Add:
			return Finite(a + b)
		case Sub:
			return Finite(a - b)
		case Mul:
			return Finite(a * b)
		}
		panic("policy: unknown binop")
	case *If:
		if evalCond(x.Cond, env) {
			return evalExpr(x.Then, env)
		}
		return evalExpr(x.Else, env)
	case *Tuple:
		var out []float64
		for _, el := range x.Elems {
			r := evalExpr(el, env)
			if r.Inf {
				// Any infinite component makes the whole tuple worst:
				// (1, inf) cannot beat any finite rank.
				return Infinite()
			}
			out = append(out, r.V...)
		}
		return Rank{V: out}
	}
	panic(fmt.Sprintf("policy: unknown expr %T", e))
}

func evalCond(c Cond, env Env) bool {
	switch x := c.(type) {
	case *Match:
		return env.Match(x.ID)
	case *Cmp:
		// A comparison reads each side's first component; the infinite
		// rank reads +Inf.
		lv, rv := math.Inf(1), math.Inf(1)
		if r := evalExpr(x.L, env); !r.Inf {
			lv = r.V[0]
		}
		if r := evalExpr(x.R, env); !r.Inf {
			rv = r.V[0]
		}
		return x.Op.Eval(lv, rv)
	case *Not:
		return !evalCond(x.C, env)
	case *And:
		return evalCond(x.L, env) && evalCond(x.R, env)
	case *Or:
		return evalCond(x.L, env) || evalCond(x.R, env)
	}
	panic(fmt.Sprintf("policy: unknown cond %T", c))
}

// PathInfo carries the ground-truth description of one concrete path in
// traffic direction (source first, destination last) for the reference
// evaluator.
type PathInfo struct {
	Nodes []string // switch names, source..destination
	Util  float64  // bottleneck (max) link utilization
	Lat   float64  // total latency, seconds
}

// pathEnv adapts PathInfo to Env using a backtracking regex matcher.
type pathEnv struct {
	p    *Policy
	info PathInfo
}

func (e pathEnv) Attr(m Metric) float64 {
	switch m {
	case Util:
		return e.info.Util
	case Lat:
		return e.info.Lat
	case Len:
		return float64(len(e.info.Nodes) - 1)
	}
	return 0
}

func (e pathEnv) Match(id int) bool {
	return MatchPath(e.p.Regexes[id], e.info.Nodes)
}

// RankPath evaluates the policy on a concrete path: the reference
// ("spec") semantics against which the compiled protocol is validated.
func (p *Policy) RankPath(info PathInfo) Rank {
	if len(info.Nodes) == 0 {
		return Infinite()
	}
	return p.Eval(pathEnv{p: p, info: info})
}

// MatchPath reports whether the switch-name sequence matches the
// regular path expression, using a simple NFA simulation (suitable for
// the short paths seen in tests; the compiler uses proper DFAs).
func MatchPath(r Regex, nodes []string) bool {
	nfa := buildThompson(r)
	cur, next := make([]bool, len(nfa.states)), make([]bool, len(nfa.states))
	cur[0] = true
	stack := nfa.closure(cur, []int{0})
	for _, sym := range nodes {
		clear(next)
		for s, on := range cur {
			if !on {
				continue
			}
			for _, t := range nfa.states[s].trans {
				if t.matches(sym) && !next[t.to] {
					next[t.to] = true
					stack = append(stack, t.to)
				}
			}
		}
		if len(stack) == 0 {
			return false
		}
		stack = nfa.closure(next, stack)
		cur, next = next, cur
	}
	return cur[nfa.accept]
}

// Minimal Thompson NFA used only by the reference matcher.

type nfaTrans struct {
	sym string // "" means dot (any symbol)
	dot bool
	to  int
}

func (t nfaTrans) matches(s string) bool { return t.dot || t.sym == s }

type nfaState struct {
	trans []nfaTrans
	eps   []int
}

type thompsonNFA struct {
	states []nfaState
	accept int
}

func (n *thompsonNFA) add() int {
	n.states = append(n.states, nfaState{})
	return len(n.states) - 1
}

// closure adds to set every state reachable by epsilon moves from the
// states on stack, and returns the stack emptied for reuse.
func (n *thompsonNFA) closure(set []bool, stack []int) []int {
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.states[s].eps {
			if !set[t] {
				set[t] = true
				stack = append(stack, t)
			}
		}
	}
	return stack
}

func buildThompson(r Regex) *thompsonNFA {
	n := &thompsonNFA{}
	start := n.add()
	accept := n.build(r, start)
	n.accept = accept
	return n
}

// build wires fragment for r starting at state `from`, returning its
// accepting state.
func (n *thompsonNFA) build(r Regex, from int) int {
	switch x := r.(type) {
	case *RSym:
		to := n.add()
		n.states[from].trans = append(n.states[from].trans, nfaTrans{sym: x.Name, to: to})
		return to
	case *RDot:
		to := n.add()
		n.states[from].trans = append(n.states[from].trans, nfaTrans{dot: true, to: to})
		return to
	case *RCat:
		mid := n.build(x.L, from)
		return n.build(x.R, mid)
	case *RAlt:
		l := n.build(x.L, from)
		r2 := n.build(x.R, from)
		to := n.add()
		n.states[l].eps = append(n.states[l].eps, to)
		n.states[r2].eps = append(n.states[r2].eps, to)
		return to
	case *RStar:
		loop := n.add()
		n.states[from].eps = append(n.states[from].eps, loop)
		end := n.build(x.X, loop)
		n.states[end].eps = append(n.states[end].eps, loop)
		return loop
	}
	panic("policy: unknown regex node")
}
