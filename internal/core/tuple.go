package core

import (
	"fmt"

	"orchestra/internal/value"
)

// MakeTuple is a convenience for building tuples in specs and tests:
// ints become integer values, strings become string values.
func MakeTuple(vals ...any) value.Tuple {
	t := make(value.Tuple, len(vals))
	for i, x := range vals {
		switch v := x.(type) {
		case int:
			t[i] = value.Int(int64(v))
		case int64:
			t[i] = value.Int(v)
		case string:
			t[i] = value.String(v)
		case value.Value:
			t[i] = v
		default:
			panic(fmt.Sprintf("core: MakeTuple: unsupported %T", x))
		}
	}
	return t
}
