package provenance

import (
	"fmt"
	"sort"
	"strings"

	"orchestra/internal/storage"
	"orchestra/internal/value"
)

// Ref identifies a tuple node of the provenance graph: a relation name
// plus the tuple's canonical key.
type Ref struct {
	Rel string
	Key string
}

// NewRef builds a Ref, encoding the tuple's canonical key. The encoding
// goes through a stack buffer, so the key string is the one allocation
// for any tuple that fits it. Callers that already hold the key (storage
// rows, delta entries) should use RowRef, which skips the encode.
func NewRef(rel string, t value.Tuple) Ref {
	var arr [128]byte
	buf := arr[:0]
	if n := t.EncodedLen(); n > len(arr) {
		buf = make([]byte, 0, n)
	}
	return Ref{Rel: rel, Key: string(t.EncodeKey(buf))}
}

// RowRef builds a Ref from a pre-keyed row without re-encoding.
func RowRef(rel string, r value.Row) Ref { return Ref{Rel: rel, Key: r.Key} }

// Tuple decodes the Ref's tuple.
func (r Ref) Tuple() value.Tuple {
	t, err := value.DecodeTuple(r.Key)
	if err != nil {
		panic(fmt.Sprintf("provenance: corrupt ref key for %s: %v", r.Rel, err))
	}
	return t
}

// String renders "Rel(v1, v2)".
func (r Ref) String() string { return r.Rel + r.Tuple().String() }

// Derivation is one mapping node of the provenance graph (Def. 3.2): an
// instantiation of a mapping, i.e. one row of its provenance table,
// connecting source tuple nodes to target tuple nodes.
type Derivation struct {
	Mapping *MappingInfo
	Row     value.Tuple
	Sources []Ref
	Targets []Ref
}

// Graph is the provenance graph of a database holding provenance tables.
// It is a *view*: derivations are computed from the current table
// contents on demand, so the graph stays consistent under incremental
// maintenance without separate bookkeeping (§4.2's motivation for the
// relational encoding).
type Graph struct {
	db       *storage.Database
	sk       *value.SkolemTable
	mappings []*MappingInfo
	// byTarget indexes mappings by target relation.
	byTarget map[string][]*MappingInfo
	// baseRels marks relations whose tuples are base (edb) nodes carrying
	// provenance tokens — the local-contribution tables.
	baseRels map[string]bool
	// tokenName renders the token of a base tuple (Example 5's p1, p2, …);
	// defaults to "rel(tuple)".
	tokenName func(Ref) string
}

// NewGraph builds a provenance graph view over db.
func NewGraph(db *storage.Database, sk *value.SkolemTable, mappings []*MappingInfo, baseRels map[string]bool) *Graph {
	g := &Graph{
		db:       db,
		sk:       sk,
		mappings: mappings,
		byTarget: make(map[string][]*MappingInfo),
		baseRels: baseRels,
		tokenName: func(r Ref) string {
			return r.String()
		},
	}
	for _, m := range mappings {
		for _, t := range m.Targets {
			g.byTarget[t.Rel] = append(g.byTarget[t.Rel], m)
		}
	}
	return g
}

// SetTokenNamer installs a custom display name for base-tuple tokens.
func (g *Graph) SetTokenNamer(fn func(Ref) string) { g.tokenName = fn }

// TokenName returns the provenance token of a base tuple ref.
func (g *Graph) TokenName(r Ref) string { return g.tokenName(r) }

// IsBase reports whether ref lives in a base (edb) relation.
func (g *Graph) IsBase(ref Ref) bool { return g.baseRels[ref.Rel] }

// Mappings returns the registered mapping metadata.
func (g *Graph) Mappings() []*MappingInfo { return g.mappings }

// derivationFromRow materializes the Derivation of one provenance row.
func (g *Graph) derivationFromRow(m *MappingInfo, row value.Tuple, s *Scratch) Derivation {
	d := Derivation{Mapping: m, Row: row}
	var t value.Tuple
	for i := range m.Sources {
		t = m.Sources[i].Instantiate(t, row, g.sk, s)
		d.Sources = append(d.Sources, NewRef(m.Sources[i].Rel, t))
	}
	for i := range m.Targets {
		t = m.Targets[i].Instantiate(t, row, g.sk, s)
		d.Targets = append(d.Targets, NewRef(m.Targets[i].Rel, t))
	}
	return d
}

// DerivationsOf returns every mapping node deriving ref, i.e. every
// provenance row of a mapping targeting ref's relation that instantiates
// to ref. This scans candidate provenance tables; amortized callers use
// Eval/Support which walk tables once.
func (g *Graph) DerivationsOf(ref Ref) []Derivation {
	var out []Derivation
	var s Scratch
	for _, m := range g.byTarget[ref.Rel] {
		pt := g.db.Table(m.ProvRel)
		if pt == nil {
			continue
		}
		pt.Each(func(row value.Tuple) bool {
			d := g.derivationFromRow(m, row, &s)
			for _, t := range d.Targets {
				if t == ref {
					out = append(out, d)
					break
				}
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mapping.ID != out[j].Mapping.ID {
			return out[i].Mapping.ID < out[j].Mapping.ID
		}
		return out[i].Row.Compare(out[j].Row) < 0
	})
	return out
}

// AllDerivations walks every provenance row of every mapping.
func (g *Graph) AllDerivations(fn func(Derivation) bool) {
	var s Scratch
	for _, m := range g.mappings {
		pt := g.db.Table(m.ProvRel)
		if pt == nil {
			continue
		}
		stop := false
		pt.Each(func(row value.Tuple) bool {
			if !fn(g.derivationFromRow(m, row, &s)) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// derivIndex is a materialized reverse index target-ref → derivations,
// built once per traversal-heavy operation.
type derivIndex map[Ref][]Derivation

func (g *Graph) buildDerivIndex() derivIndex {
	idx := make(derivIndex)
	g.AllDerivations(func(d Derivation) bool {
		for _, t := range d.Targets {
			idx[t] = append(idx[t], d)
		}
		return true
	})
	return idx
}

// Support computes the set of base tuples from which the given targets
// are (transitively) derivable — the backward pass of the paper's
// goal-directed derivation test (§4.1.3). It follows provenance rows
// backward from each target, through mapping nodes, to base relations.
func (g *Graph) Support(targets []Ref) map[Ref]bool {
	idx := g.buildDerivIndex()
	support := make(map[Ref]bool)
	visited := make(map[Ref]bool)
	var stack []Ref
	for _, t := range targets {
		if !visited[t] {
			visited[t] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.baseRels[cur.Rel] {
			// Base node: it supports the targets if actually present.
			if tbl := g.db.Table(cur.Rel); tbl != nil && tbl.ContainsKey(cur.Key) {
				support[cur] = true
			}
			continue
		}
		for _, d := range idx[cur] {
			for _, s := range d.Sources {
				if !visited[s] {
					visited[s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	return support
}

// Dot renders the graph in Graphviz format (Example 5's picture) for the
// CLI. Relations listed in hide are omitted.
func (g *Graph) Dot(hide map[string]bool) string {
	var b strings.Builder
	b.WriteString("digraph provenance {\n  rankdir=LR;\n")
	ids := make(map[Ref]string)
	node := func(r Ref) string {
		id, ok := ids[r]
		if !ok {
			id = fmt.Sprintf("t%d", len(ids))
			ids[r] = id
			label := r.String()
			if g.baseRels[r.Rel] {
				label += "\\n" + g.tokenName(r)
			}
			fmt.Fprintf(&b, "  %s [shape=box,label=%q];\n", id, label)
		}
		return id
	}
	i := 0
	g.AllDerivations(func(d Derivation) bool {
		if hide[d.Mapping.ID] {
			return true
		}
		mid := fmt.Sprintf("m%d", i)
		i++
		fmt.Fprintf(&b, "  %s [shape=ellipse,label=\"%s\"];\n", mid, d.Mapping.ID)
		for _, s := range d.Sources {
			fmt.Fprintf(&b, "  %s -> %s;\n", node(s), mid)
		}
		for _, t := range d.Targets {
			fmt.Fprintf(&b, "  %s -> %s;\n", mid, node(t))
		}
		return true
	})
	b.WriteString("}\n")
	return b.String()
}
