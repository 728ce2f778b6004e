// Stub of orchestra/internal/provenance: just enough surface for
// rowintern's qualified-name checks.
package provenance

import "orchestra/internal/value"

type Ref struct {
	Rel string
	Key string
}

func (r Ref) Tuple() value.Tuple { return nil }
