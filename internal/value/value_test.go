package value

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKinds(t *testing.T) {
	if Int(5).Kind() != KindInt || String("x").Kind() != KindString || Null(1).Kind() != KindNull {
		t.Fatal("kind mismatch")
	}
	if !Null(3).IsNull() || Int(0).IsNull() || String("").IsNull() {
		t.Fatal("IsNull mismatch")
	}
}

func TestAccessors(t *testing.T) {
	if Int(42).AsInt() != 42 {
		t.Fatal("AsInt")
	}
	if String("hi").AsString() != "hi" {
		t.Fatal("AsString")
	}
	if Null(7).NullID() != 7 {
		t.Fatal("NullID")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Int(1).AsString() },
		func() { String("a").AsInt() },
		func() { Int(1).NullID() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValueEquality(t *testing.T) {
	if Int(1) != Int(1) || Int(1) == Int(2) {
		t.Fatal("int equality")
	}
	if String("a") != String("a") || String("a") == String("b") {
		t.Fatal("string equality")
	}
	if Null(1) != Null(1) || Null(1) == Null(2) {
		t.Fatal("null equality")
	}
	// Cross-kind values never compare equal, even with same payload slot.
	if Int(1) == Null(1) {
		t.Fatal("int vs null")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"42":      Int(42),
		"-3":      Int(-3),
		`"abc"`:   String("abc"),
		`"5"`:     String("5"),
		`"a b"`:   String("a b"),
		`""`:      String(""),
		"⊥9":      Null(9),
		`"x,y"`:   String("x,y"),
		`"par()"`: String("par()"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	ordered := []Value{Int(-5), Int(0), Int(9), String(""), String("a"), String("b"), Null(1), Null(2)}
	for i := range ordered {
		for j := range ordered {
			c := Compare(ordered[i], ordered[j])
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v,%v)=%d, want <0", ordered[i], ordered[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v,%v)=%d, want 0", ordered[i], ordered[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v,%v)=%d, want >0", ordered[i], ordered[j], c)
			}
		}
	}
}

func TestTupleBasics(t *testing.T) {
	tp := Tuple{Int(1), String("x"), Null(2)}
	cl := tp.Clone()
	if !tp.Equal(cl) {
		t.Fatal("clone not equal")
	}
	cl[0] = Int(9)
	if tp.Equal(cl) {
		t.Fatal("clone aliases original")
	}
	if !tp.HasNull() {
		t.Fatal("HasNull false")
	}
	if (Tuple{Int(1)}).HasNull() {
		t.Fatal("HasNull true on null-free tuple")
	}
	if tp.Equal(Tuple{Int(1), String("x")}) {
		t.Fatal("arity mismatch equal")
	}
	if got := tp.String(); got != `(1, "x", ⊥2)` {
		t.Fatalf("String = %q", got)
	}
}

func TestTupleCompare(t *testing.T) {
	a := Tuple{Int(1), Int(2)}
	b := Tuple{Int(1), Int(3)}
	short := Tuple{Int(1)}
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Fatal("tuple compare")
	}
	if short.Compare(a) >= 0 || a.Compare(short) <= 0 {
		t.Fatal("prefix compare")
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(3) {
	case 0:
		return Int(r.Int63n(1000) - 500)
	case 1:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return String(string(b))
	default:
		return Null(r.Int63n(100) + 1)
	}
}

func randomTuple(r *rand.Rand) Tuple {
	t := make(Tuple, r.Intn(6))
	for i := range t {
		t[i] = randomValue(r)
	}
	return t
}

// Property: EncodeKey is injective (round-trips through DecodeTuple).
func TestEncodeKeyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tp := randomTuple(r)
		got, err := DecodeTuple(tp.Key())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !tp.Equal(got) && !(len(tp) == 0 && len(got) == 0) {
			t.Fatalf("round-trip mismatch: %v vs %v", tp, got)
		}
		if tp.EncodedLen() != len(tp.Key()) {
			t.Fatalf("EncodedLen %d != key len %d", tp.EncodedLen(), len(tp.Key()))
		}
	}
}

// Property: distinct tuples get distinct keys.
func TestEncodeKeyInjective(t *testing.T) {
	f := func(a, b []int64) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = Int(v)
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = Int(v)
		}
		if ta.Equal(tb) {
			return ta.Key() == tb.Key()
		}
		return ta.Key() != tb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	bad := []string{
		"\x00\x01\x02",           // truncated int
		"\x01\x00\x00",           // truncated string length
		"\x01\x00\x00\x00\x05ab", // truncated string payload
		"\x07",                   // bad kind byte
	}
	for _, s := range bad {
		if _, err := DecodeTuple(s); err == nil {
			t.Errorf("DecodeTuple(%q) succeeded, want error", s)
		}
	}
}

// Strings embedding separators must not collide with adjacent values.
func TestEncodeKeyNoSeparatorCollision(t *testing.T) {
	a := Tuple{String("ab"), String("c")}
	b := Tuple{String("a"), String("bc")}
	if a.Key() == b.Key() {
		t.Fatal("separator collision")
	}
}

func TestSkolemInterning(t *testing.T) {
	st := NewSkolemTable()
	n1 := st.Apply("f", Tuple{Int(1), String("x")})
	n2 := st.Apply("f", Tuple{Int(1), String("x")})
	n3 := st.Apply("f", Tuple{Int(2), String("x")})
	n4 := st.Apply("g", Tuple{Int(1), String("x")})
	if n1 != n2 {
		t.Fatal("same term interned twice")
	}
	if n1 == n3 || n1 == n4 || n3 == n4 {
		t.Fatal("distinct terms collided")
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
}

func TestSkolemResolveDescribe(t *testing.T) {
	st := NewSkolemTable()
	inner := st.Apply("f_m3_c", Tuple{Int(5)})
	outer := st.Apply("g", Tuple{inner, String("s")})
	fn, args, ok := st.Resolve(outer.NullID())
	if !ok || fn != "g" || len(args) != 2 {
		t.Fatalf("Resolve = %q %v %v", fn, args, ok)
	}
	if got := st.Describe(outer); got != `g(f_m3_c(5),"s")` {
		t.Fatalf("Describe = %q", got)
	}
	if _, _, ok := st.Resolve(999); ok {
		t.Fatal("Resolve of unknown id succeeded")
	}
	if got := st.Describe(Int(7)); got != "7" {
		t.Fatalf("Describe(int) = %q", got)
	}
}

func TestSkolemConcurrent(t *testing.T) {
	st := NewSkolemTable()
	done := make(chan Value, 64)
	for i := 0; i < 64; i++ {
		go func(i int) {
			done <- st.Apply("f", Tuple{Int(int64(i % 4))})
		}(i)
	}
	ids := make(map[Value]bool)
	for i := 0; i < 64; i++ {
		ids[<-done] = true
	}
	if len(ids) != 4 {
		t.Fatalf("got %d distinct nulls, want 4", len(ids))
	}
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want 4", st.Len())
	}
}

func TestSkolemArgsDefensiveCopy(t *testing.T) {
	st := NewSkolemTable()
	args := Tuple{Int(1)}
	st.Apply("f", args)
	args[0] = Int(99) // mutate caller slice; interner must hold a copy
	_, resolved, _ := st.Resolve(1)
	if resolved[0] != Int(1) {
		t.Fatal("interner aliases caller args")
	}
}
