package trust

import (
	"fmt"
	"sort"
	"strings"

	"orchestra/internal/value"
)

// Condition is one trust condition held by a peer about a mapping: the
// peer accepts a derivation through the mapping iff Accept holds of the
// mapping's variable binding (distrust conditions are stored negated at
// parse time). The zero Mapping ("") applies to every mapping.
type Condition struct {
	// Mapping is the tgd id the condition applies to ("" = all).
	Mapping string
	// Accept must hold for the derivation to be trusted.
	Accept *Pred
	// Distrust records whether the user phrased this as a distrust
	// condition, for display.
	Distrust bool
	// Raw is the predicate as entered for distrust conditions (Accept
	// stores its negation); renderers re-emit the original form from it.
	Raw *Pred
}

// String renders the condition.
func (c *Condition) String() string {
	if c.Distrust && c.Raw != nil {
		return fmt.Sprintf("distrusts %s when %s", c.Mapping, c.Raw)
	}
	verb := "trusts"
	if c.Distrust {
		verb = "distrusts"
	}
	scope := "any mapping"
	if c.Mapping != "" {
		scope = "mapping " + c.Mapping
	}
	return fmt.Sprintf("%s %s when %s", verb, scope, c.Accept)
}

// BaseCondition marks base tuples of one relation as distrusted when the
// predicate holds of the tuple's column values (keyed by column name).
type BaseCondition struct {
	Rel      string
	Distrust *Pred
}

// Policy is one peer's trust policy: which source peers it distrusts
// outright, which base tuples it distrusts, and its per-mapping
// conditions. The zero Policy trusts everything — matching the paper's
// default of trivially-true Θ.
type Policy struct {
	// Owner is the peer holding this policy.
	Owner string

	distrustedPeers map[string]bool
	conds           []*Condition
	baseConds       []*BaseCondition
}

// NewPolicy returns an all-trusting policy for a peer.
func NewPolicy(owner string) *Policy {
	return &Policy{Owner: owner, distrustedPeers: make(map[string]bool)}
}

// DistrustPeer marks every base tuple contributed by peer as distrusted.
func (p *Policy) DistrustPeer(peer string) { p.distrustedPeers[peer] = true }

// DistrustsPeer reports whether peer's contributions are distrusted.
func (p *Policy) DistrustsPeer(peer string) bool { return p.distrustedPeers[peer] }

// DistrustedPeers returns the sorted distrusted peers.
func (p *Policy) DistrustedPeers() []string {
	out := make([]string, 0, len(p.distrustedPeers))
	for q := range p.distrustedPeers {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// AddCondition attaches a mapping condition.
func (p *Policy) AddCondition(c *Condition) { p.conds = append(p.conds, c) }

// TrustMapping adds an accept-condition: derivations via mapping are
// trusted only when pred holds.
func (p *Policy) TrustMapping(mapping string, pred *Pred) {
	p.AddCondition(&Condition{Mapping: mapping, Accept: pred})
}

// DistrustMapping adds a distrust-condition: derivations via mapping are
// rejected when pred holds (i.e. accepted iff ¬pred). With the trivial
// predicate the whole mapping is distrusted.
func (p *Policy) DistrustMapping(mapping string, pred *Pred) {
	p.AddCondition(&Condition{Mapping: mapping, Accept: negate(pred), Distrust: true, Raw: pred})
}

// negate wraps a predicate into its complement. Negation of a conjunction
// of comparisons is evaluated functionally (we keep the clause list and
// flip the verdict) — adequate because Pred evaluation is total. ¬true
// is the unsatisfiable predicate of a whole-mapping distrust.
func negate(pred *Pred) *Pred { return &Pred{negated: pred} }

// DistrustBase marks base tuples of rel matching pred as distrusted.
func (p *Policy) DistrustBase(rel string, pred *Pred) {
	p.baseConds = append(p.baseConds, &BaseCondition{Rel: rel, Distrust: pred})
}

// Conditions returns the mapping conditions applying to mapping id (its
// own plus the wildcard ones).
func (p *Policy) Conditions(mapping string) []*Condition {
	var out []*Condition
	for _, c := range p.conds {
		if c.Mapping == "" || c.Mapping == mapping {
			out = append(out, c)
		}
	}
	return out
}

// AllConditions returns every mapping condition of the policy.
func (p *Policy) AllConditions() []*Condition { return p.conds }

// BaseConditions returns the policy's base-tuple distrust conditions in
// declaration order.
func (p *Policy) BaseConditions() []*BaseCondition { return p.baseConds }

// Clone returns an independent copy of the policy (conditions are
// immutable and shared). Spec evolution edits a clone so the previous
// Spec — and any System still running over it — stays untouched.
func (p *Policy) Clone() *Policy {
	c := NewPolicy(p.Owner)
	for q := range p.distrustedPeers {
		c.distrustedPeers[q] = true
	}
	c.conds = append([]*Condition(nil), p.conds...)
	c.baseConds = append([]*BaseCondition(nil), p.baseConds...)
	return c
}

// AcceptsMapping reports whether a derivation through mapping with the
// given variable binding passes all of this policy's conditions (§3.3:
// conditions of one peer AND together).
func (p *Policy) AcceptsMapping(mapping string, env value.Env) bool {
	for _, c := range p.Conditions(mapping) {
		if !c.Accept.Eval(env) {
			return false
		}
	}
	return true
}

// TrustsBase reports whether the policy trusts a base tuple of rel,
// contributed by fromPeer, with column values cols (column name →
// value). A peer always trusts its own contributions.
func (p *Policy) TrustsBase(rel, fromPeer string, cols map[string]value.Value) bool {
	if fromPeer == p.Owner {
		return true
	}
	if p.distrustedPeers[fromPeer] {
		return false
	}
	for _, bc := range p.baseConds {
		if bc.Rel == rel && bc.Distrust.Eval(value.MapEnv(cols)) {
			return false
		}
	}
	return true
}

// Describe renders the policy for the CLI.
func (p *Policy) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy of %s:\n", p.Owner)
	for _, q := range p.DistrustedPeers() {
		fmt.Fprintf(&b, "  distrusts peer %s\n", q)
	}
	for _, c := range p.conds {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	for _, bc := range p.baseConds {
		fmt.Fprintf(&b, "  distrusts base %s when %s\n", bc.Rel, bc.Distrust)
	}
	if len(p.distrustedPeers)+len(p.conds)+len(p.baseConds) == 0 {
		b.WriteString("  trusts everything\n")
	}
	return b.String()
}
