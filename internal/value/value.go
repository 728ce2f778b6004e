// Package value defines the scalar values that populate CDSS relations:
// integers, strings, and labeled nulls. Labeled nulls are the placeholder
// values that data exchange introduces for existentially quantified
// variables (Fagin et al.); here they are produced by interned Skolem
// terms, so two nulls are equal exactly when they were generated by the
// same Skolem function applied to the same arguments (paper §4.1.1).
package value

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the runtime type of a Value.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer value.
	KindInt Kind = iota
	// KindString is an immutable string value.
	KindString
	// KindNull is a labeled null: an interned Skolem term standing for an
	// unknown (but join-able) value.
	KindNull
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindNull:
		return "null"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a scalar constant stored in a tuple. The zero Value is the
// integer 0. Values are comparable with == and usable as map keys.
type Value struct {
	kind Kind
	i    int64 // integer payload, or labeled-null id
	s    string
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// String returns a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Null returns a labeled null with the given interned id. Ids are handed
// out by a SkolemTable; two nulls are equal iff their ids are equal.
func Null(id int64) Value { return Value{kind: KindNull, i: id} }

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is a labeled null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics unless v is an integer.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("value: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsString returns the string payload. It panics unless v is a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("value: AsString on " + v.kind.String())
	}
	return v.s
}

// NullID returns the labeled-null id. It panics unless v is a null.
func (v Value) NullID() int64 {
	if v.kind != KindNull {
		panic("value: NullID on " + v.kind.String())
	}
	return v.i
}

// String renders v for display: integers as decimal, strings always
// quoted (so the string "5" never prints as the integer 5), labeled
// nulls as ⊥n.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return strconv.Quote(v.s)
	case KindNull:
		return "⊥" + strconv.FormatInt(v.i, 10)
	default:
		return "?"
	}
}

// Compare orders values: all ints < all strings < all nulls, then by
// payload. It gives relations a deterministic iteration order for display
// and testing.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindInt, KindNull:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.s, b.s)
	}
}

// Tuple is an ordered list of values — one row of a relation.
type Tuple []Value

// Clone returns a copy of t that shares no storage with t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether t and u have the same arity and equal values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// HasNull reports whether any component of t is a labeled null. Certain
// answers discard such tuples (paper §2.1).
func (t Tuple) HasNull() bool {
	for _, v := range t {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// Compare orders tuples lexicographically (shorter tuples first).
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for i := 0; i < n; i++ {
		if c := Compare(t[i], u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// String renders the tuple as "(v1, v2, …)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// EncodeKey appends a canonical byte encoding of t to dst and returns the
// extended slice. The encoding is injective on tuples of a fixed arity, so
// string(EncodeKey(nil)) is usable as a hash-map key for rows.
func (t Tuple) EncodeKey(dst []byte) []byte {
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindInt, KindNull:
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(v.i))
			dst = append(dst, buf[:]...)
		case KindString:
			var buf [4]byte
			binary.BigEndian.PutUint32(buf[:], uint32(len(v.s)))
			dst = append(dst, buf[:]...)
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// Key returns the canonical string key of t (see EncodeKey).
func (t Tuple) Key() string { return string(t.EncodeKey(nil)) }

// EncodedLen returns the number of bytes EncodeKey would produce; it is the
// figure-6 "DB size" accounting unit.
func (t Tuple) EncodedLen() int {
	n := 0
	for _, v := range t {
		switch v.kind {
		case KindInt, KindNull:
			n += 9
		case KindString:
			n += 5 + len(v.s)
		}
	}
	return n
}

// DecodeTuple parses a canonical key produced by EncodeKey back into a
// Tuple. It returns an error on malformed input.
func DecodeTuple(key string) (Tuple, error) {
	var t Tuple
	b := []byte(key)
	for len(b) > 0 {
		k := Kind(b[0])
		b = b[1:]
		switch k {
		case KindInt, KindNull:
			if len(b) < 8 {
				return nil, fmt.Errorf("value: truncated %s in key", k)
			}
			i := int64(binary.BigEndian.Uint64(b[:8]))
			b = b[8:]
			if k == KindInt {
				t = append(t, Int(i))
			} else {
				t = append(t, Null(i))
			}
		case KindString:
			if len(b) < 4 {
				return nil, fmt.Errorf("value: truncated string length in key")
			}
			n := int(binary.BigEndian.Uint32(b[:4]))
			b = b[4:]
			if len(b) < n {
				return nil, fmt.Errorf("value: truncated string payload in key")
			}
			t = append(t, String(string(b[:n])))
			b = b[n:]
		default:
			return nil, fmt.Errorf("value: bad kind byte %d in key", k)
		}
	}
	return t, nil
}
