package spec

import (
	"fmt"
	"strconv"
	"strings"

	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/trust"
)

// Render writes a File back to the textual CDSS format, such that
// Parse(Render(f)) reproduces the same spec. Trust policies render as
// PolicyDirectives writes them.
func Render(f *File) string {
	var b strings.Builder
	u := f.Spec.Universe
	for _, p := range u.Peers() {
		fmt.Fprintf(&b, "peer %s {\n", p.Name)
		for _, r := range p.Schema.Relations() {
			fmt.Fprintf(&b, "  relation %s\n", r)
		}
		b.WriteString("}\n")
	}
	for _, m := range f.Spec.Mappings {
		fmt.Fprintf(&b, "mapping %s\n", m)
	}
	for _, p := range u.Peers() {
		pol := f.Spec.Policy(p.Name)
		if pol == nil {
			continue
		}
		for _, tail := range PolicyDirectives(pol) {
			fmt.Fprintf(&b, "trust %s\n", tail)
		}
	}
	for _, pe := range f.Edits {
		b.WriteString(renderEdit(pe.Peer, pe.Edit))
	}
	return b.String()
}

// PolicyDirectives renders a trust policy as directive tails — the text
// after the "trust" keyword, one per declaration, in exactly the syntax
// Parse and ApplyTrustDirective read back. The wildcard any-mapping
// scope renders as ” (unquoted to "" at parse time). Both the spec
// renderer and the diff renderer (internal/evolve) share this, so the
// two formats cannot drift.
func PolicyDirectives(pol *trust.Policy) []string {
	owner := pol.Owner
	var out []string
	for _, q := range pol.DistrustedPeers() {
		out = append(out, fmt.Sprintf("%s distrusts peer %s", owner, q))
	}
	for _, c := range pol.AllConditions() {
		scope := c.Mapping
		if scope == "" {
			scope = strconv.Quote("")
		}
		if c.Distrust {
			// The condition is stored negated; Raw holds the original.
			d := fmt.Sprintf("%s distrusts mapping %s", owner, scope)
			if c.Raw != nil && !c.Raw.Trivial() {
				d += " when " + c.Raw.String()
			}
			out = append(out, d)
		} else {
			out = append(out, fmt.Sprintf("%s trusts mapping %s when %s", owner, scope, c.Accept))
		}
	}
	for _, bc := range pol.BaseConditions() {
		out = append(out, fmt.Sprintf("%s distrusts base %s when %s", owner, bc.Rel, bc.Distrust))
	}
	return out
}

// renderEdit renders one edit line; its constants render as datalog
// terms do, so a string is quoted and never reads back as a variable.
func renderEdit(peer string, e core.Edit) string {
	sign := "-"
	if e.Insert {
		sign = "+"
	}
	a := datalog.Atom{Pred: e.Rel, Args: make([]datalog.Term, len(e.Tuple))}
	for i, v := range e.Tuple {
		a.Args[i] = datalog.C(v)
	}
	return fmt.Sprintf("edit %s %s %s\n", peer, sign, a)
}
