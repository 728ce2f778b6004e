package provenance

import (
	"sort"
	"strings"
)

// Expr is a provenance expression over the CDSS semiring (§3.2): sums and
// products of provenance tokens under unary mapping functions. A CycleVar
// marks a back-reference to a tuple currently being expanded — the
// paper's observation that cyclic mappings make provenance a system of
// equations (finitely representable even when the set of derivations is
// infinite).
type Expr interface {
	// String renders the expression with ·, +, and m(…) notation.
	String() string
	exprNode()
}

// Token is the provenance token of a base tuple.
type Token struct {
	Name string
	Ref  Ref
}

func (t Token) String() string { return t.Name }
func (Token) exprNode()        {}

// Sum is an n-ary + (alternative derivations).
type Sum struct{ Args []Expr }

func (s Sum) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	return strings.Join(parts, " + ")
}
func (Sum) exprNode() {}

// Prod is an n-ary · (joint use in one derivation).
type Prod struct{ Args []Expr }

func (p Prod) String() string {
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		s := a.String()
		if _, isSum := a.(Sum); isSum {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, "·")
}
func (Prod) exprNode() {}

// Apply is the unary mapping function m(…).
type Apply struct {
	Mapping string
	Arg     Expr
}

func (a Apply) String() string { return a.Mapping + "(" + a.Arg.String() + ")" }
func (Apply) exprNode()        {}

// CycleVar references the provenance variable Pv(t) of a tuple under
// expansion.
type CycleVar struct{ Ref Ref }

func (c CycleVar) String() string { return "Pv[" + c.Ref.String() + "]" }
func (CycleVar) exprNode()        {}

// Zero is the empty sum: a tuple with no derivations.
type Zero struct{}

func (Zero) String() string { return "0" }
func (Zero) exprNode()      {}

// ExprFor builds the provenance expression of ref by traversing the graph
// backward (Example 5's recursive reading). Transparent (internal)
// mappings are spliced out, so the result matches the paper's user-level
// expressions. Cycles yield CycleVar references; maxDepth bounds the
// expansion (0 = default 64).
func (g *Graph) ExprFor(ref Ref, maxDepth int) Expr {
	if maxDepth <= 0 {
		maxDepth = 64
	}
	idx := g.buildDerivIndex()
	onStack := make(map[Ref]bool)
	var build func(r Ref, depth int) Expr
	build = func(r Ref, depth int) Expr {
		if g.baseRels[r.Rel] {
			return Token{Name: g.tokenName(r), Ref: r}
		}
		if depth >= maxDepth || onStack[r] {
			return CycleVar{Ref: r}
		}
		derivs := idx[r]
		if len(derivs) == 0 {
			return Zero{}
		}
		onStack[r] = true
		defer delete(onStack, r)
		var summands []Expr
		for _, d := range derivs {
			var factors []Expr
			skip := false
			for _, s := range d.Sources {
				e := build(s, depth+1)
				if _, isZero := e.(Zero); isZero {
					skip = true
					break
				}
				factors = append(factors, e)
			}
			if skip {
				continue
			}
			var body Expr
			switch len(factors) {
			case 0:
				continue
			case 1:
				body = factors[0]
			default:
				sort.Slice(factors, func(i, j int) bool { return factors[i].String() < factors[j].String() })
				body = Prod{Args: factors}
			}
			switch {
			case d.Mapping.Transparent:
				summands = append(summands, body)
			default:
				// Mapping functions are semiring homomorphisms ([16]), so
				// m(a+b) = m(a)+m(b); distributing here reproduces the
				// paper's display form m3(m1(p3)) + m3(m4(p1·p2)).
				if sum, isSum := body.(Sum); isSum {
					for _, arg := range sum.Args {
						summands = append(summands, Apply{Mapping: d.Mapping.ID, Arg: arg})
					}
				} else {
					summands = append(summands, Apply{Mapping: d.Mapping.ID, Arg: body})
				}
			}
		}
		switch len(summands) {
		case 0:
			return Zero{}
		case 1:
			return summands[0]
		default:
			sort.Slice(summands, func(i, j int) bool { return summands[i].String() < summands[j].String() })
			// Deduplicate identical summands (a+a=a does NOT hold in all
			// semirings, but identical summands here mean the same
			// derivation reached twice through transparent splicing).
			dedup := summands[:1]
			for _, s := range summands[1:] {
				if s.String() != dedup[len(dedup)-1].String() {
					dedup = append(dedup, s)
				}
			}
			if len(dedup) == 1 {
				return dedup[0]
			}
			return Sum{Args: dedup}
		}
	}
	return build(ref, 0)
}

// Tokens returns the distinct token names appearing in e, sorted.
func Tokens(e Expr) []string {
	seen := make(map[string]bool)
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case Token:
			seen[n.Name] = true
		case Sum:
			for _, a := range n.Args {
				walk(a)
			}
		case Prod:
			for _, a := range n.Args {
				walk(a)
			}
		case Apply:
			walk(n.Arg)
		}
	}
	walk(e)
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
