// Package spec parses the textual CDSS description format used by the
// orchestra CLI, examples, and tests. A spec file declares peers with
// their relations, the schema mappings, per-peer trust policies, and
// optionally edit logs:
//
//	# the paper's running example
//	peer PGUS {
//	  relation G(id int, can int, nam int)
//	}
//	peer PBioSQL { relation B(id int, nam int) }
//	peer PuBio   { relation U(nam int, can int) }
//
//	mapping m1: G(i,c,n) -> B(i,n)
//	mapping m3: B(i,n) -> exists c . U(n,c)
//
//	trust PBioSQL distrusts mapping m1 when n >= 3
//	trust PBioSQL distrusts peer PuBio
//	trust PBioSQL distrusts base B when n >= 3
//
//	edit PGUS + G(1,2,3)
//	edit PGUS - G(1,2,3)
package spec

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"orchestra/internal/core"
	"orchestra/internal/schema"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
	"orchestra/internal/value"
)

// File is a parsed CDSS description.
type File struct {
	Spec *core.Spec
	// Edits are the edit-log entries in file order, tagged by publishing
	// peer.
	Edits []PeerEdit
}

// PeerEdit is one edit published by a peer.
type PeerEdit struct {
	Peer string
	Edit core.Edit
}

// EditLogs groups the file's edits into one log per peer, preserving
// order.
func (f *File) EditLogs() map[string]core.EditLog {
	out := make(map[string]core.EditLog)
	for _, pe := range f.Edits {
		out[pe.Peer] = append(out[pe.Peer], pe.Edit)
	}
	return out
}

// Parse reads a CDSS description.
func Parse(r io.Reader) (*File, error) {
	u := schema.NewUniverse()
	var mappings []*tgd.TGD
	policies := make(map[string]*trust.Policy)
	var edits []PeerEdit

	policyOf := func(peer string) *trust.Policy {
		p, ok := policies[peer]
		if !ok {
			p = trust.NewPolicy(peer)
			policies[peer] = p
		}
		return p
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	var curPeer *schema.Peer

	for sc.Scan() {
		lineNo++
		line := tgd.Scan(sc.Text())
		if line.Done() {
			continue
		}
		var err error
		if curPeer == nil {
			kw := ""
			if t := line.Next(); t.Kind == tgd.Ident && !line.Done() {
				kw = t.Text
			}
			switch kw {
			case "peer":
				curPeer, err = peerHead(&line)
			case "mapping":
				var m *tgd.TGD
				if m, err = tgd.Parse(line.Rest()); err == nil {
					if m.ID == "" {
						m.ID = fmt.Sprintf("m%d", len(mappings)+1)
					}
					mappings = append(mappings, m)
				}
			case "trust":
				err = ApplyTrustDirective(line.Rest(), policyOf)
			case "edit":
				var pe PeerEdit
				if pe, err = parseEdit(&line); err == nil {
					edits = append(edits, pe)
				}
			default:
				err = fmt.Errorf("unknown directive %q", strings.TrimSpace(sc.Text()))
			}
		}
		// A peer block's relations, on its first line or the lines after.
		if err == nil && curPeer != nil {
			var closed bool
			if closed, err = peerBody(&line, curPeer); closed && err == nil {
				err = u.AddPeer(curPeer)
				curPeer = nil
			}
		}
		if err != nil {
			return nil, fmt.Errorf("spec: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if curPeer != nil {
		return nil, fmt.Errorf("spec: unterminated peer block for %q", curPeer.Name)
	}

	s, err := core.NewSpec(u, mappings, policies)
	if err != nil {
		return nil, err
	}
	// Validate edits against the spec.
	for _, pe := range edits {
		rel := u.Relation(pe.Edit.Rel)
		if rel == nil {
			return nil, fmt.Errorf("spec: edit references unknown relation %q", pe.Edit.Rel)
		}
		if rel.Peer != pe.Peer {
			return nil, fmt.Errorf("spec: peer %q cannot edit relation %q of peer %q", pe.Peer, pe.Edit.Rel, rel.Peer)
		}
		if rel.Arity() != len(pe.Edit.Tuple) {
			return nil, fmt.Errorf("spec: edit %s has wrong arity for %s", pe.Edit, rel.Name)
		}
	}
	return &File{Spec: s, Edits: edits}, nil
}

// ParseString parses a CDSS description from a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }

// ParsePeerDecl parses a single peer declaration — the text after the
// "peer" keyword, e.g. "PRef { relation C(nam int, cls int) }" — into a
// schema.Peer. Spec evolution (internal/evolve, System.AddPeer) uses it
// to accept new peers in the same syntax spec files declare them in.
func ParsePeerDecl(text string) (*schema.Peer, error) {
	s := tgd.Scan(text)
	p, err := peerHead(&s)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	closed, err := peerBody(&s, p)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if !closed {
		return nil, fmt.Errorf("spec: peer declaration %q must be of the form 'Name { relation R(...) ... }'", text)
	}
	if p.Schema.Len() == 0 {
		return nil, fmt.Errorf("spec: peer %q declares no relations", p.Name)
	}
	return p, nil
}

// peerHead reads "Name {", the start of a peer declaration.
func peerHead(s *tgd.Scanner) (*schema.Peer, error) {
	name := s.Next()
	if name.Kind != tgd.Ident {
		return nil, fmt.Errorf("peer with bad name %s", name)
	}
	if !s.Accept("{") {
		return nil, fmt.Errorf("peer declaration missing '{'")
	}
	return schema.NewPeer(name.Text), nil
}

// peerBody reads relation declarations "relation G(id int, can int)"
// into p up to the end of s or a closing '}' that ends s, and reports
// whether it read the '}'.
func peerBody(s *tgd.Scanner, p *schema.Peer) (closed bool, err error) {
	for !s.Done() {
		if s.Accept("}") {
			return true, s.ExpectDone()
		}
		if !s.Accept("relation") {
			return false, fmt.Errorf("unexpected %s inside peer block, want a relation declaration", s.Peek())
		}
		if err := parseRelation(s, p); err != nil {
			return false, err
		}
	}
	return false, nil
}

// parseRelation reads "G(id int, can int, nam int)"; a column's type is
// optional.
func parseRelation(s *tgd.Scanner, p *schema.Peer) error {
	name := s.Next()
	if name.Kind != tgd.Ident || !s.Accept("(") {
		return fmt.Errorf("bad relation declaration at %s", name)
	}
	if s.Accept(")") {
		return fmt.Errorf("relation %q has no columns", name.Text)
	}
	var cols []schema.Column
	for {
		c := s.Next()
		if c.Kind != tgd.Ident {
			return fmt.Errorf("bad column %s in relation %q", c, name.Text)
		}
		col := schema.Column{Name: c.Text}
		if t := s.Peek(); t.Kind == tgd.Ident {
			s.Next()
			typ, err := schema.ParseType(t.Text)
			if err != nil {
				return err
			}
			col.Type = typ
		}
		cols = append(cols, col)
		if s.Accept(")") {
			break
		}
		if err := s.Expect(","); err != nil {
			return fmt.Errorf("relation %q: %w", name.Text, err)
		}
	}
	_, err := p.AddRelation(name.Text, cols...)
	return err
}

// ApplyTrustDirective applies one trust directive — the text after the
// "trust" keyword — to the policy returned by policyOf for the
// directive's peer:
//
//	<peer> distrusts mapping <id> [when <pred>]
//	<peer> trusts mapping <id> when <pred>
//	<peer> distrusts peer <name>
//	<peer> distrusts base <rel> when <pred>
//
// The mapping id "" (written as an empty string literal) is the
// wildcard scope: every mapping.
func ApplyTrustDirective(rest string, policyOf func(string) *trust.Policy) error {
	s := tgd.Scan(rest)
	peer, verb, kind, name := s.Next(), s.Next(), s.Next(), s.Next()
	wildcard := name.Kind == tgd.String && name.Text == "" && kind.Text == "mapping"
	if peer.Kind != tgd.Ident || verb.Kind != tgd.Ident || kind.Kind != tgd.Ident || name.Kind != tgd.Ident && !wildcard {
		return fmt.Errorf("bad trust directive %q", rest)
	}
	pred, hasPred := trust.True, s.Accept("when")
	if hasPred {
		if s.Done() {
			return fmt.Errorf("empty 'when' condition in %q", rest)
		}
		var err error
		if pred, err = trust.ParsePred(s.Rest()); err != nil {
			return err
		}
	} else if err := s.ExpectDone(); err != nil {
		return fmt.Errorf("bad trust directive %q: %w", rest, err)
	}
	pol := policyOf(peer.Text)
	switch {
	case verb.Text == "distrusts" && kind.Text == "peer":
		if hasPred {
			return fmt.Errorf("peer distrust cannot carry a condition")
		}
		pol.DistrustPeer(name.Text)
	case verb.Text == "distrusts" && kind.Text == "mapping":
		pol.DistrustMapping(name.Text, pred)
	case verb.Text == "trusts" && kind.Text == "mapping":
		pol.TrustMapping(name.Text, pred)
	case verb.Text == "distrusts" && kind.Text == "base":
		if pred.Trivial() {
			return fmt.Errorf("base distrust needs a 'when' condition (use 'distrusts peer' otherwise)")
		}
		pol.DistrustBase(name.Text, pred)
	default:
		return fmt.Errorf("bad trust directive %q", rest)
	}
	return nil
}

// parseEdit parses "PGUS + G(1,2,3)" / "PGUS - G(1,2,3)".
func parseEdit(s *tgd.Scanner) (PeerEdit, error) {
	peer, sign, rel := s.Next(), s.Next(), s.Next()
	if peer.Kind != tgd.Ident || rel.Kind != tgd.Ident || sign.Kind != tgd.Punct || sign.Text != "+" && sign.Text != "-" {
		return PeerEdit{}, fmt.Errorf("bad edit sign or names (want: <peer> +|- Rel(..))")
	}
	err := s.Expect("(")
	var t value.Tuple
	if err == nil {
		t, err = s.Tuple()
	}
	if err == nil {
		err = s.Expect(")")
	}
	if err == nil {
		err = s.ExpectDone()
	}
	if err != nil {
		return PeerEdit{}, fmt.Errorf("edit %s: %w", rel.Text, err)
	}
	e := core.Edit{Insert: sign.Text == "+", Rel: rel.Text, Tuple: t}
	return PeerEdit{Peer: peer.Text, Edit: e}, nil
}
