// Stub of orchestra/internal/core: just enough surface for locksafe's
// qualified-name checks.
package core

type Spec struct{}

type View struct{}

func NewView(spec *Spec, owner string) (*View, error) { return &View{}, nil }

func (v *View) Evolve(spec *Spec) error { return nil }
