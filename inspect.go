package orchestra

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"orchestra/internal/core"
)

// Instance returns a copy of the rows of an owner's curated instance Rᵒ
// of a user relation — what the peer's users query (§3.1).
func (s *System) Instance(owner, rel string) ([]Tuple, error) {
	return s.tableRows(owner, rel, func(v *core.View, rel string) rowSource { return v.Instance(rel) })
}

// LocalContributions returns a copy of the rows of Rℓ: the tuples the
// relation's peer contributed, whether or not owner trusts them. Base
// trust is applied by the rule feeding Rℓ into Rᵒ, so Instance shows
// only the trusted ones.
func (s *System) LocalContributions(owner, rel string) ([]Tuple, error) {
	return s.tableRows(owner, rel, func(v *core.View, rel string) rowSource { return v.LocalTable(rel) })
}

// Rejections returns a copy of the rows of Rr: imported tuples the
// owner's peer has curated away.
func (s *System) Rejections(owner, rel string) ([]Tuple, error) {
	return s.tableRows(owner, rel, func(v *core.View, rel string) rowSource { return v.RejectTable(rel) })
}

type rowSource interface {
	Each(func(Tuple) bool)
}

func (s *System) tableRows(owner, rel string, pick func(*core.View, string) rowSource) ([]Tuple, error) {
	h, err := s.handle(owner)
	if err != nil {
		return nil, err
	}
	if s.specNow().Universe.Relation(rel) == nil {
		return nil, fmt.Errorf("orchestra: unknown relation %q", rel)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.view.Repair(context.Background()); err != nil {
		return nil, err
	}
	var out []Tuple
	pick(h.view, rel).Each(func(t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out, nil
}

// TableSizes reports the sizes of one relation's four internal tables in
// an owner's view (Fig. 2's Rℓ / Rr / Rⁱ / Rᵒ).
type TableSizes struct {
	Local, Reject, Input, Instance int
}

// TableSizes returns the internal table sizes of a user relation.
func (s *System) TableSizes(owner, rel string) (TableSizes, error) {
	h, err := s.handle(owner)
	if err != nil {
		return TableSizes{}, err
	}
	if s.specNow().Universe.Relation(rel) == nil {
		return TableSizes{}, fmt.Errorf("orchestra: unknown relation %q", rel)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.view.Repair(context.Background()); err != nil {
		return TableSizes{}, err
	}
	return TableSizes{
		Local:    h.view.LocalTable(rel).Len(),
		Reject:   h.view.RejectTable(rel).Len(),
		Input:    h.view.InputTable(rel).Len(),
		Instance: h.view.Instance(rel).Len(),
	}, nil
}

// TotalRows returns the total number of rows across every table of an
// owner's view (base, derived, and provenance) — the view's footprint.
func (s *System) TotalRows(owner string) (int, error) {
	h, err := s.handle(owner)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.view.Repair(context.Background()); err != nil {
		return 0, err
	}
	return h.view.DB().TotalRows(), nil
}

// DescribeInstance renders an owner's curated instance of a relation
// as sorted Describe strings — the stable, human-readable form the
// CLI, the daemon's /instance endpoint, and state-comparison code all
// want.
func (s *System) DescribeInstance(owner, rel string) ([]string, error) {
	rows, err := s.Instance(owner, rel)
	if err != nil {
		return nil, err
	}
	descs := make([]string, len(rows))
	for i, row := range rows {
		if descs[i], err = s.Describe(owner, row); err != nil {
			return nil, err
		}
	}
	sort.Strings(descs)
	return descs, nil
}

// Describe renders a tuple with labeled nulls shown through their
// Skolem structure, e.g. "(3, NULL(m3,2))".
func (s *System) Describe(owner string, t Tuple) (string, error) {
	h, err := s.handle(owner)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = h.view.Skolems().Describe(v)
	}
	return "(" + strings.Join(parts, ", ") + ")", nil
}

// GraphDot renders an owner's provenance graph in Graphviz DOT form
// (cf. Example 5).
func (s *System) GraphDot(owner string) (string, error) {
	h, err := s.handle(owner)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.view.Repair(context.Background()); err != nil {
		return "", err
	}
	return h.view.Graph().Dot(nil), nil
}

// WriteSnapshot serializes an owner's view state to w, for later
// RestoreSnapshot.
func (s *System) WriteSnapshot(owner string, w io.Writer) error {
	h, err := s.handle(owner)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.view.Repair(context.Background()); err != nil {
		return err
	}
	return h.view.WriteSnapshot(w)
}

// RestoreSnapshot installs an owner's view from a snapshot written by
// WriteSnapshot, replacing any existing view for that owner. The view's
// bus cursor restarts at zero: publications already reflected in the
// snapshot must not still be on the bus, or they will be applied twice.
func (s *System) RestoreSnapshot(owner string, r io.Reader) error {
	v, err := core.RestoreView(s.specNow(), owner, s.opts, r)
	if err != nil {
		return err
	}
	if vo := s.obsx.ensureView(owner); vo != nil {
		vo.cursor.Store(0) // the restored view restarts at publication zero
	}
	s.mu.Lock()
	s.views[owner] = &viewHandle{view: v}
	s.mu.Unlock()
	return nil
}
