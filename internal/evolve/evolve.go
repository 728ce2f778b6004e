// Package evolve is the spec-evolution subsystem: it describes changes
// to a running confederation — new peers, added/removed mappings,
// replaced trust policies — as a sequence of operations, validates each
// operation into a fresh core.Spec (well-formedness, ownership, weak
// acyclicity; §3.1's construction-time guarantees hold at every
// intermediate spec), and can diff two specs into the operation sequence
// that rewrites one into the other.
//
// The package is purely about specs. The state-repair half — rewiring
// live views onto the new spec and incrementally fixing their
// materialized instances and provenance — is one method in
// internal/core, View.Evolve, which repairs a view from the old spec to
// the final spec of a whole diff whatever its operations are. The public
// facade (System.AddPeer, System.AddMapping, System.RemoveMapping,
// System.SetTrust, System.ApplyDiff) validates a diff with Apply and
// then calls View.Evolve once per view.
package evolve

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"orchestra/internal/core"
	"orchestra/internal/schema"
	"orchestra/internal/spec"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
)

// OpKind enumerates the spec-evolution operations. A kind says how the
// spec changes, not how views repair: the repair is the same for every
// kind (core.View.Evolve compares the compiled programs before and
// after).
type OpKind uint8

const (
	// OpAddPeer registers a new peer and its relations; the new tables
	// start empty.
	OpAddPeer OpKind = iota
	// OpAddMapping appends a schema mapping under a fresh id.
	OpAddMapping
	// OpRemoveMapping deletes a mapping by id. A diff may add a new
	// mapping under the same id afterwards.
	OpRemoveMapping
	// OpSetTrust replaces one peer's entire trust policy (nil = trust
	// everything, the paper's default Θ).
	OpSetTrust
	// OpTrustDirective applies one textual trust directive on top of the
	// peer's current policy — the accumulating form diff files use.
	OpTrustDirective
)

func (k OpKind) String() string {
	switch k {
	case OpAddPeer:
		return "add peer"
	case OpAddMapping:
		return "add mapping"
	case OpRemoveMapping:
		return "remove mapping"
	case OpSetTrust:
		return "set trust"
	default:
		return "trust directive"
	}
}

// Op is one spec-evolution operation. Exactly the fields of its kind are
// set.
type Op struct {
	Kind OpKind
	// Peer is the new peer (OpAddPeer).
	Peer *schema.Peer
	// Mapping is the new mapping (OpAddMapping).
	Mapping *tgd.TGD
	// MappingID names the mapping to remove (OpRemoveMapping).
	MappingID string
	// TrustPeer is the peer whose policy changes (OpSetTrust).
	TrustPeer string
	// Policy is the replacement policy (OpSetTrust; nil = trust-all).
	Policy *trust.Policy
	// Directive is the trust directive after the "trust" keyword
	// (OpTrustDirective), e.g. "PBioSQL distrusts mapping m1 when n >= 3";
	// Parse stores it as spec.PolicyDirectives writes it.
	Directive string
}

// String renders the operation in the diff-file syntax.
func (op Op) String() string {
	switch op.Kind {
	case OpAddPeer:
		var rels []string
		for _, r := range op.Peer.Schema.Relations() {
			rels = append(rels, "relation "+r.String())
		}
		return fmt.Sprintf("add peer %s { %s }", op.Peer.Name, strings.Join(rels, " "))
	case OpAddMapping:
		return "add mapping " + op.Mapping.String()
	case OpRemoveMapping:
		return "remove mapping " + op.MappingID
	case OpSetTrust:
		var b strings.Builder
		fmt.Fprintf(&b, "untrust %s", op.TrustPeer)
		if op.Policy != nil {
			for _, d := range spec.PolicyDirectives(op.Policy) {
				b.WriteString("\ntrust " + d)
			}
		}
		return b.String()
	default:
		return "trust " + op.Directive
	}
}

// Diff is an ordered sequence of spec-evolution operations.
type Diff struct {
	Ops []Op
}

// String renders the diff in the parseable diff-file syntax.
func (d *Diff) String() string {
	lines := make([]string, len(d.Ops))
	for i, op := range d.Ops {
		lines[i] = op.String()
	}
	out := strings.Join(lines, "\n")
	if out != "" {
		out += "\n"
	}
	return out
}

// ApplyOp validates one operation against a spec and returns the evolved
// spec. The input spec is never mutated: universes, mapping slices, and
// policy maps are copied as needed, so Systems still holding the old
// spec keep a consistent view of the world.
func ApplyOp(sp *core.Spec, op Op) (*core.Spec, error) {
	switch op.Kind {
	case OpAddPeer:
		if op.Peer == nil {
			return nil, fmt.Errorf("evolve: add peer without a peer")
		}
		u, err := cloneUniverse(sp.Universe)
		if err != nil {
			return nil, err
		}
		if err := u.AddPeer(op.Peer); err != nil {
			return nil, fmt.Errorf("evolve: %w", err)
		}
		return core.NewSpec(u, sp.Mappings, sp.Policies)

	case OpAddMapping:
		if op.Mapping == nil {
			return nil, fmt.Errorf("evolve: add mapping without a mapping")
		}
		if op.Mapping.ID == "" {
			return nil, fmt.Errorf("evolve: mapping %s has no id", op.Mapping)
		}
		if sp.Mapping(op.Mapping.ID) != nil {
			return nil, fmt.Errorf("evolve: mapping id %q already exists", op.Mapping.ID)
		}
		mappings := make([]*tgd.TGD, 0, len(sp.Mappings)+1)
		mappings = append(mappings, sp.Mappings...)
		mappings = append(mappings, op.Mapping)
		// NewSpec re-checks well-formedness over the universe and weak
		// acyclicity of the whole extended mapping set.
		return core.NewSpec(sp.Universe, mappings, sp.Policies)

	case OpRemoveMapping:
		if sp.Mapping(op.MappingID) == nil {
			return nil, fmt.Errorf("evolve: unknown mapping %q", op.MappingID)
		}
		mappings := make([]*tgd.TGD, 0, len(sp.Mappings)-1)
		for _, m := range sp.Mappings {
			if m.ID != op.MappingID {
				mappings = append(mappings, m)
			}
		}
		return core.NewSpec(sp.Universe, mappings, sp.Policies)

	case OpSetTrust:
		if sp.Universe.Peer(op.TrustPeer) == nil {
			return nil, fmt.Errorf("evolve: trust change for unknown peer %q", op.TrustPeer)
		}
		policies := clonePolicies(sp.Policies)
		if op.Policy == nil {
			delete(policies, op.TrustPeer)
		} else {
			policies[op.TrustPeer] = op.Policy
		}
		return core.NewSpec(sp.Universe, sp.Mappings, policies)

	case OpTrustDirective:
		policies := clonePolicies(sp.Policies)
		policyOf := func(peer string) *trust.Policy {
			if p, ok := policies[peer]; ok && p != nil {
				c := p.Clone()
				policies[peer] = c
				return c
			}
			p := trust.NewPolicy(peer)
			policies[peer] = p
			return p
		}
		if err := spec.ApplyTrustDirective(op.Directive, policyOf); err != nil {
			return nil, fmt.Errorf("evolve: %w", err)
		}
		return core.NewSpec(sp.Universe, sp.Mappings, policies)

	default:
		return nil, fmt.Errorf("evolve: unknown operation kind %d", op.Kind)
	}
}

// Apply folds a whole diff over a spec, validating every intermediate
// spec.
func Apply(sp *core.Spec, d *Diff) (*core.Spec, error) {
	cur := sp
	for i, op := range d.Ops {
		next, err := ApplyOp(cur, op)
		if err != nil {
			return nil, fmt.Errorf("evolve: op %d (%s): %w", i+1, op.Kind, err)
		}
		cur = next
	}
	return cur, nil
}

// cloneUniverse shallow-copies a universe (peers are immutable after
// construction and safely shared).
func cloneUniverse(u *schema.Universe) (*schema.Universe, error) {
	out := schema.NewUniverse()
	for _, p := range u.Peers() {
		if err := out.AddPeer(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// clonePolicies shallow-copies a policy map (policies are cloned lazily
// by the operations that edit them).
func clonePolicies(in map[string]*trust.Policy) map[string]*trust.Policy {
	out := make(map[string]*trust.Policy, len(in)+1)
	for k, v := range in {
		out[k] = v
	}
	return out
}

// Parse reads a spec-diff file: one operation per line (peer blocks may
// span lines), '#' comments, blank lines ignored.
//
//	# bring a reference-data peer into the confederation
//	add peer PRef {
//	  relation C(nam int, cls int)
//	}
//	add mapping m4: U(n,c) -> C(n,n)
//	remove mapping m1
//	trust PBioSQL distrusts mapping m3 when n >= 5
//	untrust PuBio
func Parse(r io.Reader) (*Diff, error) {
	d := &Diff{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	peerText := "" // the lines of a peer block read so far

	for sc.Scan() {
		lineNo++
		text := sc.Text()
		if peerText != "" {
			text = peerText + "\n" + text
		}
		line := tgd.Scan(text)
		if line.Done() {
			continue
		}
		var op Op
		var err error
		switch kw := line.Next().Text; {
		case kw == "add" && line.Accept("peer"):
			peerText = text
			if !closesBlock(line) {
				continue
			}
			peerText = ""
			op.Kind = OpAddPeer
			op.Peer, err = spec.ParsePeerDecl(line.Rest())
		case kw == "add" && line.Accept("mapping"):
			op.Kind = OpAddMapping
			op.Mapping, err = tgd.Parse(line.Rest())
		case kw == "remove" && line.Accept("mapping"):
			op.Kind = OpRemoveMapping
			op.MappingID, err = name(&line, "remove mapping without an id")
		case kw == "untrust":
			op.Kind = OpSetTrust
			op.TrustPeer, err = name(&line, "untrust without a peer")
		case kw == "trust":
			op.Kind = OpTrustDirective
			op.Directive, err = canonicalDirective(line.Rest())
		default:
			err = fmt.Errorf("unknown directive %q", strings.TrimSpace(text))
		}
		if err != nil {
			return nil, fmt.Errorf("evolve: line %d: %w", lineNo, err)
		}
		d.Ops = append(d.Ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if peerText != "" {
		return nil, fmt.Errorf("evolve: unterminated peer block %q", peerText)
	}
	return d, nil
}

// closesBlock reports whether the rest of s holds a '}'.
func closesBlock(s tgd.Scanner) bool {
	for !s.Done() {
		if t := s.Next(); t.Kind == tgd.Punct && t.Text == "}" {
			return true
		}
	}
	return false
}

// name reads the one identifier that makes up the rest of a line.
func name(s *tgd.Scanner, missing string) (string, error) {
	t := s.Next()
	if t.Kind != tgd.Ident {
		return "", fmt.Errorf("%s, got %s", missing, t)
	}
	return t.Text, s.ExpectDone()
}

// canonicalDirective checks a trust directive and returns it as the
// spec renderer writes it, so a diff renders the same however its
// directives were spelled.
func canonicalDirective(text string) (string, error) {
	var pol *trust.Policy
	err := spec.ApplyTrustDirective(text, func(peer string) *trust.Policy {
		pol = trust.NewPolicy(peer)
		return pol
	})
	if err != nil {
		return "", err
	}
	return spec.PolicyDirectives(pol)[0], nil
}

// ParseString parses a diff from a string.
func ParseString(s string) (*Diff, error) { return Parse(strings.NewReader(s)) }

// DiffSpecs computes the operation sequence rewriting old into new:
// mapping removals first (so a redefined mapping id frees its slot),
// then new peers, added mappings, and trust replacements. Peers may only
// be added — a peer of old missing from new, or a shared peer with a
// different schema, is an error (the subsystem does not support peer
// removal or schema alteration).
func DiffSpecs(old, new *core.Spec) (*Diff, error) {
	d := &Diff{}

	oldPeers := make(map[string]*schema.Peer)
	for _, p := range old.Universe.Peers() {
		oldPeers[p.Name] = p
	}
	for _, p := range new.Universe.Peers() {
		op, ok := oldPeers[p.Name]
		if !ok {
			continue
		}
		if !sameSchema(op, p) {
			return nil, fmt.Errorf("evolve: peer %q changed its schema (unsupported)", p.Name)
		}
		delete(oldPeers, p.Name)
	}
	for name := range oldPeers {
		return nil, fmt.Errorf("evolve: peer %q was removed (unsupported)", name)
	}

	newByID := make(map[string]*tgd.TGD, len(new.Mappings))
	for _, m := range new.Mappings {
		newByID[m.ID] = m
	}
	for _, m := range old.Mappings {
		if nm, ok := newByID[m.ID]; !ok || !m.Equal(nm) {
			d.Ops = append(d.Ops, Op{Kind: OpRemoveMapping, MappingID: m.ID})
		}
	}
	for _, p := range new.Universe.Peers() {
		if old.Universe.Peer(p.Name) == nil {
			d.Ops = append(d.Ops, Op{Kind: OpAddPeer, Peer: p})
		}
	}
	for _, m := range new.Mappings {
		om := old.Mapping(m.ID)
		if om == nil || !om.Equal(m) {
			d.Ops = append(d.Ops, Op{Kind: OpAddMapping, Mapping: m})
		}
	}

	seen := make(map[string]bool)
	var withPolicy []string
	for _, u := range []*core.Spec{old, new} {
		for peer := range u.Policies {
			if !seen[peer] {
				seen[peer] = true
				withPolicy = append(withPolicy, peer)
			}
		}
	}
	sort.Strings(withPolicy)
	for _, peer := range withPolicy {
		if !samePolicy(old.Policy(peer), new.Policy(peer)) {
			d.Ops = append(d.Ops, Op{Kind: OpSetTrust, TrustPeer: peer, Policy: new.Policy(peer)})
		}
	}
	return d, nil
}

func sameSchema(a, b *schema.Peer) bool {
	ar, br := a.Schema.Relations(), b.Schema.Relations()
	if len(ar) != len(br) {
		return false
	}
	for i := range ar {
		if ar[i].String() != br[i].String() {
			return false
		}
	}
	return true
}

func samePolicy(a, b *trust.Policy) bool {
	render := func(p *trust.Policy) string {
		if p == nil {
			return ""
		}
		d := p.Describe()
		if strings.Contains(d, "trusts everything") {
			return ""
		}
		return d
	}
	return render(a) == render(b)
}
