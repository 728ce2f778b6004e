// Testdata for rowintern: Row construction and key encoding on a
// hot-path package.
package storage

import (
	"orchestra/internal/provenance"
	"orchestra/internal/value"
)

func adHoc(tup value.Tuple) value.Row {
	return value.Row{Tuple: tup, Key: tup.Key()} // want "composite literal" `Tuple\.Key\(\) allocates`
}

func bareKey(tup value.Tuple) string {
	return tup.Key() // want `Tuple\.Key\(\) allocates`
}

func interned(tup value.Tuple) value.Row {
	return value.NewRow(tup)
}

func preKeyed(tup value.Tuple, key string) value.Row {
	return value.KeyedRow(tup, key)
}

func scratch(tup value.Tuple, buf []byte) []byte {
	return tup.EncodeKey(buf[:0])
}

func clearSlot(rows []value.Row) {
	// The zero value is not a key construction.
	rows[0] = value.Row{}
}

func decodeRef(ref provenance.Ref) value.Tuple {
	return ref.Tuple() // want `Ref\.Tuple\(\) decodes`
}

type node struct {
	ref provenance.Ref
	t   value.Tuple
}

func carried(n node) value.Tuple {
	return n.t
}
