// Package trust implements the paper's trust policies (§2.2, §3.3):
// per-mapping trust conditions Θ over the mapping's variables, token-level
// trust assignments for base tuples, and the composition of conditions
// along mapping paths. Conditions compile to datalog filters so untrusted
// derivations are rejected inline during update exchange (§4.2), and they
// can also be evaluated post-hoc over provenance expressions in the
// boolean semiring (Example 7).
package trust

import (
	"fmt"
	"strings"

	"orchestra/internal/datalog"
	"orchestra/internal/tgd"
	"orchestra/internal/value"
)

// Op is a comparison operator.
type Op uint8

const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = map[Op]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

func (o Op) String() string { return opNames[o] }

// comparison is one "lhs op rhs" clause; each side is a variable or a
// constant.
type comparison struct {
	lhs, rhs datalog.Term
	op       Op
}

func operand(t datalog.Term, env value.Env) (value.Value, bool) {
	if t.Kind == datalog.TermVar {
		return env.Lookup(t.Var)
	}
	return t.Const, true
}

func (c comparison) eval(env value.Env) bool {
	l, ok := operand(c.lhs, env)
	if !ok {
		return false
	}
	r, ok := operand(c.rhs, env)
	if !ok {
		return false
	}
	cmp := value.Compare(l, r)
	switch c.op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// Pred is a conjunction of comparisons over named variables — the
// data-selection part of a trust condition ("n >= 3", "n != 2 and i < 10").
// A Pred may also be the negation of another Pred (used to turn the
// paper's "distrusts … if φ" conditions into accept-conditions ¬φ).
type Pred struct {
	clauses []comparison
	negated *Pred
}

// True is the always-true predicate.
var True = &Pred{}

// opTexts spells every comparison operator ParsePred reads.
var opTexts = map[string]Op{
	"=": OpEq, "==": OpEq, "!=": OpNe, "<>": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

// ParsePred parses "cmp (and cmp)*" where cmp is "term op term", term is
// a variable name, integer, or string literal, and op ∈ {=, ==, !=, <>, <,
// <=, >, >=}. The empty string and "true" parse to the trivial predicate.
func ParsePred(input string) (*Pred, error) {
	if src := strings.TrimSpace(input); src == "" || strings.EqualFold(src, "true") {
		return True, nil
	}
	s := tgd.Scan(input)
	p := &Pred{}
	for {
		var c comparison
		var err error
		if c.lhs, err = s.Term(); err != nil {
			return nil, fmt.Errorf("trust: %w in %q", err, input)
		}
		op := s.Next()
		var ok bool
		if c.op, ok = opTexts[op.Text]; !ok || op.Kind != tgd.Punct {
			return nil, fmt.Errorf("trust: no comparison operator at %s in %q", op, input)
		}
		if c.rhs, err = s.Term(); err != nil {
			return nil, fmt.Errorf("trust: %w in %q", err, input)
		}
		p.clauses = append(p.clauses, c)
		if t := s.Peek(); t.Kind != tgd.Ident || !strings.EqualFold(t.Text, "and") {
			break
		}
		s.Next()
	}
	if err := s.ExpectDone(); err != nil {
		return nil, fmt.Errorf("trust: %w in %q", err, input)
	}
	return p, nil
}

// MustParsePred is ParsePred that panics, for static tables and tests.
func MustParsePred(input string) *Pred {
	p, err := ParsePred(input)
	if err != nil {
		panic(err)
	}
	return p
}

// Eval evaluates the predicate under a variable binding. Unbound variables
// make their clause false (and hence a negated clause true).
func (p *Pred) Eval(env value.Env) bool {
	if p.negated != nil {
		return !p.negated.Eval(env)
	}
	for _, c := range p.clauses {
		if !c.eval(env) {
			return false
		}
	}
	return true
}

// Trivial reports whether the predicate is the constant true.
func (p *Pred) Trivial() bool { return p.negated == nil && len(p.clauses) == 0 }

// Selectivity estimates the fraction of bindings the predicate passes,
// for the cost-based query planner. The numbers are the classic textbook
// defaults — equality is selective, inequality barely filters, ranges
// land in between — good enough to rank join orders, not to predict
// cardinalities.
func (p *Pred) Selectivity() float64 {
	if p.negated != nil {
		s := 1 - p.negated.Selectivity()
		if s < 0.05 {
			s = 0.05
		}
		return s
	}
	sel := 1.0
	for _, c := range p.clauses {
		switch c.op {
		case OpEq:
			sel *= 0.1
		case OpNe:
			sel *= 0.9
		default: // ranges
			sel *= 1.0 / 3
		}
	}
	return sel
}

// Vars returns the variable names the predicate reads.
func (p *Pred) Vars() []string {
	if p.negated != nil {
		return p.negated.Vars()
	}
	seen := make(map[string]bool)
	var out []string
	add := func(t datalog.Term) {
		if t.Kind == datalog.TermVar && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	for _, c := range p.clauses {
		add(c.lhs)
		add(c.rhs)
	}
	return out
}

// String renders the predicate from its clauses, "lhs op rhs" joined by
// " and ", so ParsePred reads it back to the same predicate. A negation
// renders as "not(…)", for display only.
func (p *Pred) String() string {
	if p.negated != nil {
		return "not(" + p.negated.String() + ")"
	}
	if len(p.clauses) == 0 {
		return "true"
	}
	var b strings.Builder
	for i, c := range p.clauses {
		if i > 0 {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "%s %s %s", c.lhs, c.op, c.rhs)
	}
	return b.String()
}
