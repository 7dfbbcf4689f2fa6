package policy

import (
	"fmt"
	"math"
)

// Program is a rank expression lowered to flat postfix code over one
// metric-vector layout: every path.<attr> is resolved to its slot in
// the vector when the program is built, conditionals become forward
// jumps, and a run is one loop over the code with no tree, no Env and
// no heap. It computes exactly what Policy.Eval computes — Eval stays
// the reference it is tested against — and it is what a switch runs:
// f(pid, mv) per probe class and the full policy at recombination.
type Program struct {
	code  []instr
	proj  []uint8 // the slots a pure projection emits, in rank order
	pure  bool
	width int // most components a run can emit
	depth int // operand-stack high-water mark
}

type instr struct {
	op  opcode
	arg int32   // slot, regex id, comparison or jump target
	k   float64 // opConst's literal
}

type opcode uint8

const (
	opConst     opcode = iota // push k
	opSlot                    // push mv[arg]
	opInf                     // push the infinite rank
	opAdd                     // pop r, l; push l+r; the infinite rank absorbs
	opSub                     // likewise l-r
	opMul                     // likewise l*r
	opFirst                   // pop r, l; push l, infinite if either is: a tuple read as a scalar
	opEmit                    // pop into the output rank; the infinite rank ends the run
	opMatch                   // push accept[arg]
	opCmp                     // pop r, l; push l CmpOp(arg) r, an infinite operand reading +Inf
	opNot                     // negate the top bit
	opAnd                     // pop two bits, push their conjunction
	opOr                      // pop two bits, push their disjunction
	opJumpFalse               // pop a bit; continue at arg when it is false
	opJump                    // continue at arg
)

// scalar is one operand: a number, or the infinite rank.
type scalar struct {
	v   float64
	inf bool
}

// Lower compiles e for metric vectors laid out as layout. An attribute
// the layout does not carry reads 0, as it does from an Env without it.
func Lower(e Expr, layout []Metric) *Program {
	l := lowerer{layout: layout}
	width := l.rank(e)
	p := &Program{code: l.code, width: width, depth: max(l.maxNum, l.maxBit)}
	// A projection is slot, emit, slot, emit, ...: comparing two of them
	// needs neither rank materialised.
	p.pure = len(p.code)%2 == 0
	for i := 0; p.pure && i < len(p.code); i += 2 {
		p.pure = p.code[i].op == opSlot && p.code[i+1].op == opEmit
		p.proj = append(p.proj, uint8(p.code[i].arg))
	}
	if !p.pure {
		p.proj = nil
	}
	return p
}

// Width is the most rank components a run can produce.
func (p *Program) Width() int { return p.width }

// Projection returns the metric-vector slots the program emits, in rank
// order, when it does nothing else — (path.len, path.util) — and false
// when it computes anything.
func (p *Program) Projection() ([]uint8, bool) { return p.proj, p.pure }

// Run evaluates the program over mv (laid out as Lower was told) and
// the per-regex match bits; a regex past the end of accept does not
// match. Rank components are appended to buf, which the returned Rank
// aliases; with cap(buf) >= Width() a run allocates nothing.
func (p *Program) Run(mv []float64, accept []bool, buf []float64) Rank {
	if p.pure {
		for _, s := range p.proj {
			buf = append(buf, mv[s])
		}
		return Rank{V: buf}
	}
	var numArr [8]scalar
	var bitArr [8]bool
	num, bit := numArr[:], bitArr[:]
	if p.depth > len(num) {
		num, bit = make([]scalar, p.depth), make([]bool, p.depth)
	}
	n, b := 0, 0 // stack heights
	for pc := 0; pc < len(p.code); pc++ {
		in := &p.code[pc]
		switch in.op {
		case opConst:
			num[n] = scalar{v: in.k}
			n++
		case opSlot:
			num[n] = scalar{v: mv[in.arg]}
			n++
		case opInf:
			num[n] = scalar{inf: true}
			n++
		case opAdd, opSub, opMul, opFirst:
			n--
			l, r := num[n-1], num[n]
			out := scalar{inf: l.inf || r.inf}
			if !out.inf {
				switch in.op {
				case opAdd:
					out.v = l.v + r.v
				case opSub:
					out.v = l.v - r.v
				case opMul:
					out.v = l.v * r.v
				case opFirst:
					out.v = l.v
				}
			}
			num[n-1] = out
		case opEmit:
			n--
			if num[n].inf {
				return Infinite()
			}
			buf = append(buf, num[n].v)
		case opMatch:
			bit[b] = uint32(in.arg) < uint32(len(accept)) && accept[in.arg]
			b++
		case opCmp:
			n -= 2
			bit[b] = CmpOp(in.arg).Eval(num[n].orInf(), num[n+1].orInf())
			b++
		case opNot:
			bit[b-1] = !bit[b-1]
		case opAnd:
			b--
			bit[b-1] = bit[b-1] && bit[b]
		case opOr:
			b--
			bit[b-1] = bit[b-1] || bit[b]
		case opJumpFalse:
			b--
			if !bit[b] {
				pc = int(in.arg) - 1
			}
		case opJump:
			pc = int(in.arg) - 1
		}
	}
	return Rank{V: buf}
}

// orInf reads an operand the way a comparison does.
func (s scalar) orInf() float64 {
	if s.inf {
		return math.Inf(1)
	}
	return s.v
}

// lowerer emits postfix code and tracks how deep the two operand
// stacks get.
type lowerer struct {
	layout         []Metric
	code           []instr
	num, bit       int
	maxNum, maxBit int
}

func (l *lowerer) emit(op opcode, arg int32, k float64) int {
	l.code = append(l.code, instr{op: op, arg: arg, k: k})
	return len(l.code) - 1
}

func (l *lowerer) pushNum() { l.num++; l.maxNum = max(l.maxNum, l.num) }
func (l *lowerer) pushBit() { l.bit++; l.maxBit = max(l.maxBit, l.bit) }

// rank lowers e where its whole rank is wanted — the policy body, a
// tuple element, a branch of either — and returns the most components
// it can emit.
func (l *lowerer) rank(e Expr) int {
	switch x := e.(type) {
	case *Tuple:
		w := 0
		for _, el := range x.Elems {
			w += l.rank(el)
		}
		return w
	case *If:
		var wt, we int
		l.branch(x, func() { wt = l.rank(x.Then) }, func() { we = l.rank(x.Else) })
		return max(wt, we)
	}
	l.scalar(e)
	l.emit(opEmit, 0, 0)
	l.num--
	return 1
}

// scalar lowers e where one number is wanted: an operand of arithmetic
// or of a comparison. It leaves exactly one operand on the stack.
func (l *lowerer) scalar(e Expr) {
	switch x := e.(type) {
	case *Const:
		l.emit(opConst, 0, x.X)
		l.pushNum()
	case *Inf:
		l.emit(opInf, 0, 0)
		l.pushNum()
	case *Attr:
		slot := -1
		for i, m := range l.layout {
			if m == x.M {
				slot = i
			}
		}
		if slot < 0 {
			l.emit(opConst, 0, 0)
		} else {
			l.emit(opSlot, int32(slot), 0)
		}
		l.pushNum()
	case *Bin:
		l.scalar(x.L)
		l.scalar(x.R)
		switch x.Op {
		case Add:
			l.emit(opAdd, 0, 0)
		case Sub:
			l.emit(opSub, 0, 0)
		case Mul:
			l.emit(opMul, 0, 0)
		default:
			panic("policy: unknown binop")
		}
		l.num--
	case *If:
		l.branch(x, func() { l.scalar(x.Then) }, func() { l.scalar(x.Else) })
		l.pushNum()
	case *Tuple:
		// A tuple read as a scalar is its first component, and infinite
		// when any component is. resolve rejects the shape; Eval, given
		// one built by hand, means this.
		if len(x.Elems) == 0 {
			panic("policy: empty tuple")
		}
		for i, el := range x.Elems {
			l.scalar(el)
			if i > 0 {
				l.emit(opFirst, 0, 0)
				l.num--
			}
		}
	default:
		panic(fmt.Sprintf("policy: unknown expr %T", e))
	}
}

// branch lowers a conditional around the code then and els emit. Both
// arms must leave the stacks as they found them, or one operand higher:
// the caller accounts for that operand once.
func (l *lowerer) branch(x *If, then, els func()) {
	l.cond(x.Cond)
	toElse := l.emit(opJumpFalse, 0, 0)
	l.bit--
	num := l.num
	then()
	toEnd := l.emit(opJump, 0, 0)
	l.code[toElse].arg = int32(len(l.code))
	l.num = num
	els()
	l.code[toEnd].arg = int32(len(l.code))
	l.num = num
}

// cond lowers c; it leaves one bit on the stack.
func (l *lowerer) cond(c Cond) {
	switch x := c.(type) {
	case *Match:
		l.emit(opMatch, int32(x.ID), 0)
		l.pushBit()
	case *Cmp:
		l.scalar(x.L)
		l.scalar(x.R)
		l.emit(opCmp, int32(x.Op), 0)
		l.num -= 2
		l.pushBit()
	case *Not:
		l.cond(x.C)
		l.emit(opNot, 0, 0)
	case *And:
		l.cond(x.L)
		l.cond(x.R)
		l.emit(opAnd, 0, 0)
		l.bit--
	case *Or:
		l.cond(x.L)
		l.cond(x.R)
		l.emit(opOr, 0, 0)
		l.bit--
	default:
		panic(fmt.Sprintf("policy: unknown cond %T", c))
	}
}
