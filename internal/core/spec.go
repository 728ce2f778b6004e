package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"orchestra/internal/schema"
	"orchestra/internal/tgd"
	"orchestra/internal/trust"
)

// Spec is the static description of a CDSS: the peers and their schemas
// (Σ), the schema mappings (M), and each peer's trust policy. A Spec is
// immutable once validated; Views are instantiated from it.
type Spec struct {
	Universe *schema.Universe
	Mappings []*tgd.TGD
	// Policies maps peer name → trust policy; absent peers trust
	// everything (the paper's trivially-true Θ default).
	Policies map[string]*trust.Policy

	fingerprintOnce sync.Once
	fingerprint     string
}

// NewSpec validates the CDSS description: mappings are well formed over
// the universe, mapping ids are unique, and the mapping set is weakly
// acyclic (§3.1's decidability requirement).
func NewSpec(u *schema.Universe, mappings []*tgd.TGD, policies map[string]*trust.Policy) (*Spec, error) {
	if u == nil {
		return nil, fmt.Errorf("core: nil universe")
	}
	ids := make(map[string]bool)
	for _, m := range mappings {
		if m.ID == "" {
			return nil, fmt.Errorf("core: mapping without id: %s", m)
		}
		if ids[m.ID] {
			return nil, fmt.Errorf("core: duplicate mapping id %q", m.ID)
		}
		ids[m.ID] = true
		if err := m.Validate(u); err != nil {
			return nil, err
		}
	}
	if err := tgd.CheckWeaklyAcyclic(mappings); err != nil {
		return nil, err
	}
	if policies == nil {
		policies = make(map[string]*trust.Policy)
	}
	for name := range policies {
		if u.Peer(name) == nil {
			return nil, fmt.Errorf("core: policy for unknown peer %q", name)
		}
	}
	return &Spec{Universe: u, Mappings: mappings, Policies: policies}, nil
}

// Policy returns the policy of a peer (nil means trust-all).
func (s *Spec) Policy(peer string) *trust.Policy { return s.Policies[peer] }

// Mapping returns the mapping with the given id, or nil.
func (s *Spec) Mapping(id string) *tgd.TGD {
	for _, m := range s.Mappings {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// Fingerprint returns a stable digest of the whole CDSS description —
// peers and their relation signatures, the mapping set, and every trust
// policy. Declaration order does not matter (peers sort by name,
// mappings by id): two Specs share a fingerprint iff they describe the
// same confederation, so a spec reached by evolution operations
// fingerprints identically to the equivalent spec parsed from a file.
// The digest identifies which spec a snapshot or state directory was
// taken under (spec evolution bumps it; see internal/evolve). It is
// computed once per Spec, which is immutable after NewSpec.
func (s *Spec) Fingerprint() string {
	s.fingerprintOnce.Do(func() { s.fingerprint = s.computeFingerprint() })
	return s.fingerprint
}

func (s *Spec) computeFingerprint() string {
	h := sha256.New()
	peers := append([]*schema.Peer(nil), s.Universe.Peers()...)
	sort.Slice(peers, func(i, j int) bool { return peers[i].Name < peers[j].Name })
	for _, p := range peers {
		fmt.Fprintf(h, "peer %s\n", p.Name)
		for _, r := range p.Schema.Relations() {
			fmt.Fprintf(h, "  relation %s\n", r)
		}
	}
	mappings := append([]*tgd.TGD(nil), s.Mappings...)
	sort.Slice(mappings, func(i, j int) bool { return mappings[i].ID < mappings[j].ID })
	for _, m := range mappings {
		fmt.Fprintf(h, "mapping %s\n", m)
	}
	withPolicy := make([]string, 0, len(s.Policies))
	for name, pol := range s.Policies {
		if pol != nil {
			withPolicy = append(withPolicy, name)
		}
	}
	sort.Strings(withPolicy)
	for _, name := range withPolicy {
		// Describe renders the directives in declaration order; skip
		// trust-all policies so an empty policy equals no policy.
		d := s.Policies[name].Describe()
		if strings.Contains(d, "trusts everything") {
			continue
		}
		fmt.Fprint(h, d)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// PeerOf returns the owning peer of a user relation, or "".
func (s *Spec) PeerOf(rel string) string {
	if r := s.Universe.Relation(rel); r != nil {
		return r.Peer
	}
	return ""
}
