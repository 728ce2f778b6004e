// Testdata for rowintern: packages off the hot path may build rows
// however they like.
package coldpath

import (
	"orchestra/internal/provenance"
	"orchestra/internal/value"
)

func adHoc(tup value.Tuple) value.Row {
	return value.Row{Tuple: tup, Key: tup.Key()}
}

func render(ref provenance.Ref) string {
	return ref.Rel + ref.Tuple()[0]
}
