// Package datalog defines the rule language that update exchange compiles
// schema mappings into (paper §4.1.1): datalog extended with Skolem
// functions in rule heads and safe negation in rule bodies. The package
// covers syntax, well-formedness (safety), and stratification; evaluation
// lives in internal/engine.
package datalog

import (
	"fmt"
	"strconv"
	"strings"

	"orchestra/internal/value"
)

// TermKind discriminates rule terms.
type TermKind uint8

const (
	// TermVar is a variable, e.g. x.
	TermVar TermKind = iota
	// TermConst is a constant value.
	TermConst
	// TermSkolem is a Skolem function application f(x̄) — allowed only in
	// rule heads, standing for an existentially quantified value.
	TermSkolem
)

// Term is a variable, constant, or Skolem application.
type Term struct {
	Kind  TermKind
	Var   string
	Const value.Value
	// Fn and FnArgs describe a Skolem application; FnArgs are variable
	// names (the paper parameterizes Skolem functions by the variables
	// shared between a tgd's LHS and RHS, §4.1.1).
	Fn     string
	FnArgs []string
}

// V returns a variable term.
func V(name string) Term { return Term{Kind: TermVar, Var: name} }

// C returns a constant term.
func C(v value.Value) Term { return Term{Kind: TermConst, Const: v} }

// Sk returns a Skolem application term fn(args…).
func Sk(fn string, args ...string) Term {
	return Term{Kind: TermSkolem, Fn: fn, FnArgs: args}
}

// String renders the term in rule syntax. A string constant is always
// quoted, so the text parses back to a constant and never to a variable.
func (t Term) String() string {
	switch t.Kind {
	case TermVar:
		return t.Var
	case TermConst:
		if t.Const.Kind() == value.KindString {
			return strconv.Quote(t.Const.AsString())
		}
		return t.Const.String()
	case TermSkolem:
		return fmt.Sprintf("%s(%s)", t.Fn, strings.Join(t.FnArgs, ","))
	default:
		return "?"
	}
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Vars returns the variable names occurring in the atom (including inside
// Skolem arguments), in first-occurrence order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, t := range a.Args {
		switch t.Kind {
		case TermVar:
			add(t.Var)
		case TermSkolem:
			for _, v := range t.FnArgs {
				add(v)
			}
		}
	}
	return out
}

// String renders "Pred(t1,…)".
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ","))
}

// Literal is an atom or its negation. Negation is only legal in rule
// bodies and must be safe (§3.1: "tgds with safe negation").
type Literal struct {
	Atom Atom
	Neg  bool
}

// Pos returns a positive body literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg returns a negated body literal.
func Neg(a Atom) Literal { return Literal{Atom: a, Neg: true} }

func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Filter is an extra comparison predicate attached to a rule — the hook
// through which per-mapping trust conditions Θ (paper §3.3) are pushed
// into evaluation. It receives the variable binding of a satisfied body
// as a value.Env and returns whether the head may be derived. The engine
// implements the Env directly over its slot array, so filters run
// without materializing a map per match.
type Filter func(env value.Env) bool

// Rule is head :- body, with optional comparison filters.
type Rule struct {
	// ID identifies the rule for provenance and diagnostics; mapping rules
	// use their tgd id.
	ID   string
	Head Atom
	Body []Literal
	// Filters are evaluated after the body matches (conjunctively).
	Filters []Filter
	// FilterDescs documents Filters for display, one string per filter.
	FilterDescs []string
	// FilterSels estimates, per filter, the fraction of bindings that
	// pass, for the cost-based planner's result-cardinality estimate.
	// Parallel to Filters; missing entries default to 1 (no reduction).
	FilterSels []float64
}

// NewRule builds a rule.
func NewRule(id string, head Atom, body ...Literal) *Rule {
	return &Rule{ID: id, Head: head, Body: body}
}

// AddFilter attaches a comparison filter with a human-readable label.
func (r *Rule) AddFilter(desc string, f Filter) {
	r.Filters = append(r.Filters, f)
	r.FilterDescs = append(r.FilterDescs, desc)
}

// AddFilterSel is AddFilter with an estimated selectivity in (0, 1] for
// the cost-based planner.
func (r *Rule) AddFilterSel(desc string, sel float64, f Filter) {
	for len(r.FilterSels) < len(r.Filters) {
		r.FilterSels = append(r.FilterSels, 1)
	}
	r.AddFilter(desc, f)
	r.FilterSels = append(r.FilterSels, sel)
}

// FilterSelectivity returns the product of the rule's filter selectivity
// estimates.
func (r *Rule) FilterSelectivity() float64 {
	sel := 1.0
	for _, s := range r.FilterSels {
		if s > 0 && s <= 1 {
			sel *= s
		}
	}
	return sel
}

// Validate checks rule safety:
//   - every head variable (incl. Skolem arguments) appears in a positive
//     body atom;
//   - every variable of a negated atom appears in a positive body atom
//     (safe negation, §3.1);
//   - Skolem terms in positive body atoms act as computed equality
//     checks (the inverse rules of §4.1.3 need them); their arguments
//     must be bound by regular variable occurrences, and negated atoms
//     may not contain them;
//   - the body is non-empty.
func (r *Rule) Validate() error {
	if len(r.Body) == 0 {
		return fmt.Errorf("datalog: rule %s has empty body", r.ID)
	}
	// Variables bound by regular (non-Skolem) occurrences in positive
	// atoms; Skolem argument lists cannot bind.
	pos := make(map[string]bool)
	for _, l := range r.Body {
		if l.Neg {
			continue
		}
		for _, t := range l.Atom.Args {
			if t.Kind == TermVar {
				pos[t.Var] = true
			}
		}
	}
	if len(pos) == 0 {
		return fmt.Errorf("datalog: rule %s has no positive body atom", r.ID)
	}
	for _, v := range r.Head.Vars() {
		if !pos[v] {
			return fmt.Errorf("datalog: rule %s: head variable %q not bound by positive body", r.ID, v)
		}
	}
	for _, l := range r.Body {
		for _, t := range l.Atom.Args {
			if t.Kind != TermSkolem {
				continue
			}
			if l.Neg {
				return fmt.Errorf("datalog: rule %s: Skolem term in negated atom %s", r.ID, l.Atom)
			}
			for _, v := range t.FnArgs {
				if !pos[v] {
					return fmt.Errorf("datalog: rule %s: body Skolem argument %q not bound", r.ID, v)
				}
			}
		}
		if !l.Neg {
			continue
		}
		for _, v := range l.Atom.Vars() {
			if !pos[v] {
				return fmt.Errorf("datalog: rule %s: unsafe negation on variable %q", r.ID, v)
			}
		}
	}
	return nil
}

// String renders "head :- lit1, lit2." with filter annotations.
func (r *Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	s := fmt.Sprintf("%s :- %s", r.Head, strings.Join(parts, ", "))
	for _, d := range r.FilterDescs {
		s += ", [" + d + "]"
	}
	return s + "."
}

// Program is a set of rules evaluated together to fixpoint.
type Program struct {
	Rules []*Rule
}

// NewProgram builds a program from rules.
func NewProgram(rules ...*Rule) *Program { return &Program{Rules: rules} }

// Add appends rules.
func (p *Program) Add(rules ...*Rule) { p.Rules = append(p.Rules, rules...) }

// Validate checks every rule.
func (p *Program) Validate() error {
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// IDBPreds returns the set of predicates defined by some rule head.
func (p *Program) IDBPreds() map[string]bool {
	idb := make(map[string]bool)
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	return idb
}

// Preds returns every predicate mentioned in the program, sorted.
func (p *Program) Preds() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, r := range p.Rules {
		add(r.Head.Pred)
		for _, l := range r.Body {
			add(l.Atom.Pred)
		}
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// String renders the program one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
