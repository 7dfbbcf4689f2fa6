// Package analysis implements Contra's static policy analyses (§2,
// §3 and appendix A of the paper):
//
//   - Monotonicity: a path's rank must not improve as the path grows,
//     or probes could circulate forever and forwarding loops form even
//     with versioned probes.
//   - Isotonicity: switches along a path must agree on preference
//     order, or greedy per-hop selection yields suboptimal paths.
//   - Decomposition: a non-isotonic policy is split into isotonic
//     subpolicies, one probe class (pid) each. Probes propagate
//     independently per pid, ordered by that pid's leaf expression,
//     and each switch recombines them by evaluating the full policy
//     over the best entry of every (tag, pid).
//
// Regular-expression conditionals are *not* decomposed here: the
// product graph handles them structurally (per-tag probes, §4.1).
// Decomposition splits on the distinct metric leaf expressions of the
// policy's conditional tree.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"contra/internal/policy"
)

// Subpolicy is one isotonic probe class produced by decomposition.
type Subpolicy struct {
	ID int // probe id (pid) carried by probes and table keys

	// Rank is the leaf expression ordering this pid's probes during
	// propagation: PROCESSPROBE's f(pid, mv). It contains no
	// conditionals and no regex matches.
	Rank policy.Expr

	// Sig is the ordering signature leaves were grouped by (additive
	// constants stripped); leaves with equal signatures share a pid.
	Sig string

	// Leaves are the original leaf expressions folded into this pid
	// (for diagnostics).
	Leaves []string

	// ConstOnly marks pids whose rank ignores metrics entirely: probes
	// then only discover reachability, and any compliant path ties.
	ConstOnly bool
}

// Result is the outcome of analyzing one policy.
type Result struct {
	Policy *policy.Policy

	// Monotone reports the conservative whole-policy monotonicity
	// check. Non-monotone policies compile but the paper's loop
	// freedom argument no longer holds; Warnings explains.
	Monotone bool

	// Isotone reports whether the policy is isotonic as written
	// (single pid, no metric conditionals, well-ordered tuples).
	// Non-isotonic policies are decomposed.
	Isotone bool

	// Subpolicies has one entry per pid, in pid order.
	Subpolicies []Subpolicy

	// MV is the metric vector layout carried by every probe: the
	// distinct attributes the policy reads, in Metric order. All pids
	// share the layout so that final evaluation can run on any entry.
	MV []policy.Metric

	// Warnings collects non-fatal findings (non-monotone conditionals,
	// approximated isotonicity, ...).
	Warnings []string

	// rankProgs[pid] is that pid's propagation order and policyProg the
	// full policy, each lowered once against MV; every Evaluator over
	// this Result runs these.
	rankProgs  []*policy.Program
	policyProg *policy.Program

	// scalarOK says the policy ranks on one metric as it stands (see
	// ScalarRank), and scalar names it.
	scalar   policy.Metric
	scalarOK bool
}

// ScalarRank returns the metric a scalar-rank policy ranks on, and
// whether the policy is one: its metric vector holds one metric, and
// every pid's propagation order and the full policy are the projection
// of that metric. A rank under such a policy is the metric itself, so a
// switch can compare and store it without running a program.
func (r *Result) ScalarRank() (policy.Metric, bool) { return r.scalar, r.scalarOK }

// projectsFirstSlot reports whether p emits metric-vector slot 0 and
// nothing else.
func projectsFirstSlot(p *policy.Program) bool {
	slots, ok := p.Projection()
	return ok && len(slots) == 1 && slots[0] == 0
}

// NumPids returns the number of probe classes.
func (r *Result) NumPids() int { return len(r.Subpolicies) }

// Analyze runs all static analyses on p.
func Analyze(p *policy.Policy) (*Result, error) {
	res := &Result{Policy: p, MV: append([]policy.Metric(nil), p.Attrs...)}

	leaves := hoistLeaves(p.Body)
	if len(leaves) == 0 {
		return nil, fmt.Errorf("analysis: policy has no rank leaves")
	}

	// Group leaves by ordering signature.
	bySig := make(map[string]*Subpolicy)
	var order []string
	for _, leaf := range leaves {
		if err := checkLeafMonotone(leaf); err != nil {
			return nil, err
		}
		if containsInf(leaf) {
			// Inf is absorbing in tuples and arithmetic, so this leaf
			// ranks every path inf: no probes are needed for it —
			// such paths are simply never used.
			continue
		}
		if isConstExpr(leaf) {
			// Constant leaves (including inf) induce no ordering; fold
			// them all into one reachability-only pid keyed "const".
			sp, ok := bySig["const"]
			if !ok {
				sp = &Subpolicy{Rank: &policy.Const{X: 0}, Sig: "const", ConstOnly: true}
				bySig["const"] = sp
				order = append(order, "const")
			}
			sp.Leaves = append(sp.Leaves, leaf.String())
			continue
		}
		sig := orderSignature(leaf)
		sp, ok := bySig[sig]
		if !ok {
			sp = &Subpolicy{Rank: stripConstants(leaf), Sig: sig}
			bySig[sig] = sp
			order = append(order, sig)
		}
		sp.Leaves = append(sp.Leaves, leaf.String())
	}
	// Constant leaves need no probe class of their own when a metric
	// pid exists: probes of any pid flood the (pruned) product graph,
	// establishing the routes, and the constant rank is recovered at
	// decision time from the tag's acceptance bits. This is the
	// paper's Figure 6(e) observation that its example policy needs
	// only a single pid carrying utilization. A reachability-only pid
	// survives only for purely static policies.
	hasMetricPid := false
	for _, sig := range order {
		if sig != "const" {
			hasMetricPid = true
			break
		}
	}
	if hasMetricPid {
		filtered := order[:0]
		for _, sig := range order {
			if sig != "const" {
				filtered = append(filtered, sig)
			}
		}
		order = filtered
	}
	// Deterministic pid assignment in first-seen order.
	sort.SliceStable(order, func(i, j int) bool {
		if (order[i] == "const") != (order[j] == "const") {
			return order[j] == "const"
		}
		return false
	})
	for i, sig := range order {
		sp := bySig[sig]
		sp.ID = i
		res.Subpolicies = append(res.Subpolicies, *sp)
	}

	// Pure-inf policies admit no traffic anywhere; reject early.
	if len(res.Subpolicies) == 0 {
		return nil, fmt.Errorf("analysis: policy ranks every path inf; no traffic would be admitted")
	}

	res.Monotone = checkPolicyMonotone(p.Body, res)
	res.Isotone = checkIsotone(p.Body, res)

	for i := range res.Subpolicies {
		res.rankProgs = append(res.rankProgs, policy.Lower(res.Subpolicies[i].Rank, res.MV))
	}
	res.policyProg = policy.Lower(p.Body, res.MV)
	res.scalarOK = len(res.MV) == 1 && projectsFirstSlot(res.policyProg)
	for _, prog := range res.rankProgs {
		res.scalarOK = res.scalarOK && projectsFirstSlot(prog)
	}
	if res.scalarOK {
		res.scalar = res.MV[0]
	}
	return res, nil
}

// EvalRank computes a pid's propagation rank f(pid, mv) (Figure 7) for
// a metric vector laid out per Result.MV, on the reference evaluator
// (policy.Eval); switches run the compiled form through an Evaluator.
func (r *Result) EvalRank(pid int, mv []float64) policy.Rank {
	sp := &r.Subpolicies[pid]
	if sp.ConstOnly {
		return policy.Finite(0)
	}
	p := policy.Policy{Body: sp.Rank}
	return p.Eval(mvEnv{mv: mv, layout: r.MV})
}

// EvalPolicy evaluates the full policy for a candidate entry: mv laid
// out per Result.MV and match bits per regex ID. This is the
// recombination step each switch runs to pick its overall best entry
// (the BestT asterisk), on the reference evaluator.
func (r *Result) EvalPolicy(mv []float64, matches func(regexID int) bool) policy.Rank {
	return r.Policy.Eval(mvEnv{mv: mv, layout: r.MV, matches: matches})
}

// MaxMV bounds the metric-vector layout a compiled policy can use: the
// data plane carries vectors len(MV) wide, folding a probe's in stack
// scratch of MaxMV floats, and a standalone probe's in Packet.MV.
const MaxMV = 4

// Evaluator runs a Result's rank programs — one per pid for the
// propagation order, one for the full policy — without heap allocation.
// The programs are compiled once per Result and shared; an Evaluator
// adds only the two scratch ranks a single-threaded consumer (one
// switch router) evaluates into. A returned Rank aliases scratch and is
// valid only until the next call, so retained ranks must copy V.
type Evaluator struct {
	res *Result
	// buf receives every evaluation; keep is where BetterRank parks the
	// candidate's rank while the incumbent's is computed into buf.
	buf, keep []float64
}

// NewEvaluator returns a reusable rank evaluator over r.
func (r *Result) NewEvaluator() *Evaluator { return &r.NewEvaluators(1)[0] }

// NewEvaluators returns n independent rank evaluators over r, one per
// router of a fleet, in one slab with their scratch in another.
func (r *Result) NewEvaluators(n int) []Evaluator {
	width := r.policyProg.Width()
	for _, p := range r.rankProgs {
		width = max(width, p.Width())
	}
	scratch := make([]float64, 2*width*n)
	evs := make([]Evaluator, n)
	for i := range evs {
		lo, hi := 2*width*i, 2*width*(i+1)
		s := scratch[lo:hi:hi]
		evs[i] = Evaluator{res: r, buf: s[:0:width], keep: s[width:width]}
	}
	return evs
}

// BetterRank reports whether the candidate metric vector strictly
// outranks the incumbent under pid's propagation order; both are laid
// out per Result.MV. When that order is a projection of the metric
// vector — (path.len, path.util) — the two vectors are compared slot by
// slot and neither rank is built.
func (ev *Evaluator) BetterRank(pid int, cand, inc []float64) bool {
	p := ev.res.rankProgs[pid]
	if slots, ok := p.Projection(); ok {
		// Rank.Cmp's loop, on the slots themselves.
		for _, s := range slots {
			if cand[s] < inc[s] {
				return true
			}
			if cand[s] > inc[s] {
				return false
			}
		}
		return false
	}
	rc := p.Run(cand, nil, ev.keep)
	return rc.Better(p.Run(inc, nil, ev.buf))
}

// EvalRank is pid's propagation rank f(pid, mv). The programs only read
// mv, so a caller's stack vector does not escape to the heap.
func (ev *Evaluator) EvalRank(pid int, mv []float64) policy.Rank {
	return ev.res.rankProgs[pid].Run(mv, nil, ev.buf)
}

// EvalPolicy is the full policy's rank with match bits supplied as a
// slice, one bool per regex ID; nil means no regex matches.
func (ev *Evaluator) EvalPolicy(mv []float64, accept []bool) policy.Rank {
	return ev.res.policyProg.Run(mv, accept, ev.buf)
}

// mvEnv is the reference evaluator's environment over a metric vector.
type mvEnv struct {
	mv      []float64
	layout  []policy.Metric
	matches func(int) bool // nil: no regex matches
}

func (e mvEnv) Attr(m policy.Metric) float64 {
	for i, a := range e.layout {
		if a == m {
			return e.mv[i]
		}
	}
	return 0
}

func (e mvEnv) Match(id int) bool { return e.matches != nil && e.matches(id) }

// ---- conditional hoisting ----

// hoistLeaves returns the pure metric expressions at the leaves of the
// policy's conditional tree, distributing arithmetic and tuples through
// conditionals:
//
//	(if c then a else b) + e  =>  leaves of (a+e) and (b+e)
//	(if c then a else b, e)   =>  leaves of (a,e) and (b,e)
func hoistLeaves(e policy.Expr) []policy.Expr {
	switch x := e.(type) {
	case *policy.Const, *policy.Inf, *policy.Attr:
		return []policy.Expr{e}
	case *policy.If:
		return append(hoistLeaves(x.Then), hoistLeaves(x.Else)...)
	case *policy.Bin:
		var out []policy.Expr
		for _, l := range hoistLeaves(x.L) {
			for _, r := range hoistLeaves(x.R) {
				out = append(out, &policy.Bin{Op: x.Op, L: l, R: r})
			}
		}
		return dedupExprs(out)
	case *policy.Tuple:
		// Cartesian product of element leaves.
		acc := [][]policy.Expr{nil}
		for _, el := range x.Elems {
			ls := hoistLeaves(el)
			var next [][]policy.Expr
			for _, prefix := range acc {
				for _, l := range ls {
					row := append(append([]policy.Expr(nil), prefix...), l)
					next = append(next, row)
				}
			}
			acc = next
		}
		var out []policy.Expr
		for _, row := range acc {
			out = append(out, &policy.Tuple{Elems: row})
		}
		return dedupExprs(out)
	}
	panic(fmt.Sprintf("analysis: unknown expr %T", e))
}

func dedupExprs(xs []policy.Expr) []policy.Expr {
	seen := make(map[string]bool)
	var out []policy.Expr
	for _, x := range xs {
		k := x.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, x)
		}
	}
	return out
}

// ---- ordering signatures ----

// orderSignature canonicalizes a leaf so that leaves inducing the same
// preference order on metric vectors share a signature: additive
// constants vanish, positive multiplicative constants vanish, and
// constant tuple elements vanish. E.g. both (0, path.len, path.util)
// and (1, path.len, path.util) sign as "len,util", so a single probe
// class serves both conditional branches.
func orderSignature(e policy.Expr) string {
	parts := signatureParts(e)
	if len(parts) == 0 {
		return "const"
	}
	return strings.Join(parts, ",")
}

func signatureParts(e policy.Expr) []string {
	switch x := e.(type) {
	case *policy.Const, *policy.Inf:
		return nil
	case *policy.Attr:
		return []string{x.M.String()}
	case *policy.Bin:
		lc, lv := constValue(x.L)
		rc, rv := constValue(x.R)
		switch x.Op {
		case policy.Add:
			if lc {
				return signatureParts(x.R)
			}
			if rc {
				return signatureParts(x.L)
			}
		case policy.Sub:
			if rc {
				return signatureParts(x.L)
			}
			if lc && lv == 0 {
				// 0 - e reverses the order; keep it distinct.
				return []string{"-(" + strings.Join(signatureParts(x.R), ",") + ")"}
			}
		case policy.Mul:
			if lc && lv > 0 {
				return signatureParts(x.R)
			}
			if rc && rv > 0 {
				return signatureParts(x.L)
			}
		}
		// General case: keep the printed form (conservative: no
		// sharing).
		return []string{x.String()}
	case *policy.Tuple:
		var out []string
		for _, el := range x.Elems {
			out = append(out, signatureParts(el)...)
		}
		return out
	}
	panic(fmt.Sprintf("analysis: unknown expr %T", e))
}

// stripConstants removes constant tuple elements so the pid's rank
// expression matches its signature; scalar structure is kept.
func stripConstants(e policy.Expr) policy.Expr {
	t, ok := e.(*policy.Tuple)
	if !ok {
		return e
	}
	var elems []policy.Expr
	for _, el := range t.Elems {
		if isConstExpr(el) {
			continue
		}
		elems = append(elems, stripConstants(el))
	}
	if len(elems) == 0 {
		return &policy.Const{X: 0}
	}
	if len(elems) == 1 {
		return elems[0]
	}
	return &policy.Tuple{Elems: elems}
}

func isConstExpr(e policy.Expr) bool {
	c, _ := constValue(e)
	return c
}

// containsInf reports whether the leaf contains the infinite rank
// anywhere; by the eval rules (Inf absorbs through Bin and Tuple) such
// a leaf ranks every path inf.
func containsInf(e policy.Expr) bool {
	switch x := e.(type) {
	case *policy.Inf:
		return true
	case *policy.Bin:
		return containsInf(x.L) || containsInf(x.R)
	case *policy.Tuple:
		for _, el := range x.Elems {
			if containsInf(el) {
				return true
			}
		}
	}
	return false
}

// constValue evaluates e if it is metric-free. Inf reports constant
// with value +inf semantics (second return unused then).
func constValue(e policy.Expr) (bool, float64) {
	switch x := e.(type) {
	case *policy.Const:
		return true, x.X
	case *policy.Inf:
		return true, 0
	case *policy.Attr:
		return false, 0
	case *policy.Bin:
		lc, lv := constValue(x.L)
		rc, rv := constValue(x.R)
		if !lc || !rc {
			return false, 0
		}
		switch x.Op {
		case policy.Add:
			return true, lv + rv
		case policy.Sub:
			return true, lv - rv
		case policy.Mul:
			return true, lv * rv
		}
	case *policy.Tuple:
		for _, el := range x.Elems {
			if c, _ := constValue(el); !c {
				return false, 0
			}
		}
		return true, 0
	case *policy.If:
		return false, 0
	}
	return false, 0
}

// ---- monotonicity ----

// checkLeafMonotone verifies a leaf expression never decreases as its
// inputs (path metrics) grow: this is what bounds probe propagation.
func checkLeafMonotone(e policy.Expr) error {
	mono, _ := monotoneNonneg(e)
	if !mono {
		return fmt.Errorf("analysis: leaf %q is not monotone: extending a path could improve its rank, so probes could loop (use only +, * by non-negative constants, and attributes)", e.String())
	}
	return nil
}

// monotoneNonneg returns (monotone non-decreasing in every attribute,
// guaranteed non-negative).
func monotoneNonneg(e policy.Expr) (mono, nonneg bool) {
	switch x := e.(type) {
	case *policy.Const:
		return true, x.X >= 0
	case *policy.Inf:
		return true, true
	case *policy.Attr:
		return true, true // util in [0,1], lat and len non-negative
	case *policy.Bin:
		lm, ln := monotoneNonneg(x.L)
		rm, rn := monotoneNonneg(x.R)
		switch x.Op {
		case policy.Add:
			return lm && rm, ln && rn
		case policy.Sub:
			rc, rv := constValue(x.R)
			if rc {
				// e - const stays monotone; sign unknown.
				return lm, rc && rv <= 0 && ln
			}
			return false, false
		case policy.Mul:
			lc, lv := constValue(x.L)
			rc, rv := constValue(x.R)
			if lc && lv >= 0 {
				return rm, rn
			}
			if rc && rv >= 0 {
				return lm, ln
			}
			// attr * attr with both non-negative monotone is monotone.
			if lm && rm && ln && rn {
				return true, true
			}
			return false, false
		}
	case *policy.Tuple:
		mono, nonneg = true, true
		for _, el := range x.Elems {
			m, n := monotoneNonneg(el)
			mono = mono && m
			nonneg = nonneg && n
		}
		return mono, nonneg
	case *policy.If:
		// Leaves contain no conditionals; treated conservatively.
		return false, false
	}
	return false, false
}

// checkPolicyMonotone runs the conservative whole-policy check: every
// leaf monotone (already enforced) and every *metric* conditional can
// only move rank upward as metrics grow. Regex conditionals are
// excluded: the product graph gives each match outcome its own tag and
// probes never compare across tags.
func checkPolicyMonotone(e policy.Expr, res *Result) bool {
	ok := true
	var walk func(policy.Expr)
	walk = func(e policy.Expr) {
		x, isIf := e.(*policy.If)
		if !isIf {
			switch b := e.(type) {
			case *policy.Bin:
				walk(b.L)
				walk(b.R)
			case *policy.Tuple:
				for _, el := range b.Elems {
					walk(el)
				}
			}
			return
		}
		walk(x.Then)
		walk(x.Else)
		dir := condFlipDirection(x.Cond)
		if dir == flipNever {
			return // regex-only condition: handled by tags
		}
		lo, hi := x.Then, x.Else
		if dir == flipFalseToTrue {
			lo, hi = x.Else, x.Then
		}
		if dir == flipUnknown || !branchOrdered(lo, hi) {
			ok = false
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"conditional %q may rank a longer path better than its prefix; loop freedom is not guaranteed", x.Cond.String()))
		}
	}
	walk(e)
	return ok
}

type flipDir uint8

const (
	flipNever       flipDir = iota // regex-only: tags isolate outcomes
	flipTrueToFalse                // e.g. attr < c: true while small
	flipFalseToTrue                // e.g. attr > c
	flipUnknown
)

// condFlipDirection classifies how a condition can change as path
// metrics grow along an extension.
func condFlipDirection(c policy.Cond) flipDir {
	switch x := c.(type) {
	case *policy.Match:
		return flipNever
	case *policy.Cmp:
		lC, _ := constValue(x.L)
		rC, _ := constValue(x.R)
		lMono, _ := monotoneNonneg(x.L)
		rMono, _ := monotoneNonneg(x.R)
		switch {
		case rC && lMono: // metric OP const
			switch x.Op {
			case policy.LT, policy.LE:
				return flipTrueToFalse
			case policy.GT, policy.GE:
				return flipFalseToTrue
			}
		case lC && rMono: // const OP metric
			switch x.Op {
			case policy.LT, policy.LE:
				return flipFalseToTrue
			case policy.GT, policy.GE:
				return flipTrueToFalse
			}
		}
		return flipUnknown
	case *policy.Not:
		switch condFlipDirection(x.C) {
		case flipNever:
			return flipNever
		case flipTrueToFalse:
			return flipFalseToTrue
		case flipFalseToTrue:
			return flipTrueToFalse
		}
		return flipUnknown
	case *policy.And, *policy.Or:
		var l, r flipDir
		if a, ok := x.(*policy.And); ok {
			l, r = condFlipDirection(a.L), condFlipDirection(a.R)
		} else {
			o := x.(*policy.Or)
			l, r = condFlipDirection(o.L), condFlipDirection(o.R)
		}
		if l == flipNever {
			return r
		}
		if r == flipNever {
			return l
		}
		if l == r {
			return l
		}
		return flipUnknown
	}
	return flipUnknown
}

// branchOrdered conservatively checks that the branch active for small
// metrics (lo) never ranks above the branch active for large metrics
// (hi): it compares their leading constant components.
func branchOrdered(lo, hi policy.Expr) bool {
	lv, lok := leadConst(lo)
	hv, hok := leadConst(hi)
	if _, isInf := hi.(*policy.Inf); isInf {
		return true // anything <= inf
	}
	return lok && hok && lv <= hv
}

// leadConst extracts the first lexicographic component if constant.
func leadConst(e policy.Expr) (float64, bool) {
	switch x := e.(type) {
	case *policy.Const:
		return x.X, true
	case *policy.Tuple:
		if len(x.Elems) > 0 {
			return leadConst(x.Elems[0])
		}
	case *policy.If:
		lv, lok := leadConst(x.Then)
		hv, hok := leadConst(x.Else)
		if lok && hok && lv == hv {
			return lv, true
		}
	}
	return 0, false
}

// ---- isotonicity ----

// checkIsotone decides whether the policy as written is isotonic:
// a single metric ordering (one pid, no metric conditionals) whose
// tuple components are well-ordered — once a max-composed attribute
// (util) appears, no sum-composed attribute (lat, len) may follow it,
// since "widest-shortest" style orders famously violate isotonicity.
func checkIsotone(e policy.Expr, res *Result) bool {
	metricPids := 0
	for _, sp := range res.Subpolicies {
		if !sp.ConstOnly {
			metricPids++
		}
	}
	if metricPids > 1 {
		return false
	}
	if hasMetricCond(e) {
		return false
	}
	iso := true
	for _, sp := range res.Subpolicies {
		if sp.ConstOnly {
			continue
		}
		if !tupleIsotone(sp.Rank) {
			iso = false
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"ordering %q places a max-composed attribute before a sum-composed one; greedy per-hop selection may be suboptimal (paths are still policy-compliant)", sp.Rank.String()))
		}
	}
	return iso
}

func hasMetricCond(e policy.Expr) bool {
	switch x := e.(type) {
	case *policy.If:
		if condFlipDirection(x.Cond) != flipNever {
			return true
		}
		return hasMetricCond(x.Then) || hasMetricCond(x.Else)
	case *policy.Bin:
		return hasMetricCond(x.L) || hasMetricCond(x.R)
	case *policy.Tuple:
		for _, el := range x.Elems {
			if hasMetricCond(el) {
				return true
			}
		}
	}
	return false
}

// tupleIsotone checks component ordering: sum-composed attributes may
// precede max-composed ones but not the reverse.
func tupleIsotone(e policy.Expr) bool {
	comps := flattenComponents(e)
	sawMax := false
	for _, c := range comps {
		usesMax, usesSum := attrComposition(c)
		if sawMax && usesSum {
			return false
		}
		if usesMax {
			sawMax = true
		}
		if usesMax && usesSum {
			return false // mixed arithmetic like util+len in one component
		}
	}
	return true
}

func flattenComponents(e policy.Expr) []policy.Expr {
	if t, ok := e.(*policy.Tuple); ok {
		var out []policy.Expr
		for _, el := range t.Elems {
			out = append(out, flattenComponents(el)...)
		}
		return out
	}
	return []policy.Expr{e}
}

func attrComposition(e policy.Expr) (usesMax, usesSum bool) {
	switch x := e.(type) {
	case *policy.Attr:
		if x.M == policy.Util {
			return true, false
		}
		return false, true
	case *policy.Bin:
		lm, ls := attrComposition(x.L)
		rm, rs := attrComposition(x.R)
		return lm || rm, ls || rs
	case *policy.Tuple:
		for _, el := range x.Elems {
			m, s := attrComposition(el)
			usesMax = usesMax || m
			usesSum = usesSum || s
		}
	}
	return usesMax, usesSum
}

// Describe renders a human-readable analysis report (used by the
// compiler CLI).
func (r *Result) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy: %s\n", r.Policy.String())
	fmt.Fprintf(&b, "monotone: %v\nisotone: %v\n", r.Monotone, r.Isotone)
	fmt.Fprintf(&b, "metric vector: %v\n", r.MV)
	fmt.Fprintf(&b, "probe classes: %d\n", len(r.Subpolicies))
	for _, sp := range r.Subpolicies {
		kind := "metric"
		if sp.ConstOnly {
			kind = "reachability"
		}
		fmt.Fprintf(&b, "  pid %d (%s): order by %s  [leaves: %s]\n",
			sp.ID, kind, sp.Rank.String(), strings.Join(sp.Leaves, " | "))
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}
