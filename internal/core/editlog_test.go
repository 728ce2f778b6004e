package core

import (
	"testing"
)

// TestNetEffectMatchesNaiveReplay: property test — NetEffect's deltas,
// applied to the pre-state, must equal the result of replaying the log
// edit by edit against the §3.1 semantics.
func TestNetEffectMatchesNaiveReplay(t *testing.T) {
	rnd := newRand(5)
	for trial := 0; trial < 60; trial++ {
		v, err := NewView(paperSpec(t, nil), "", Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Random pre-state over a tiny domain.
		type state struct{ l, r map[int64]bool }
		pre := state{l: map[int64]bool{}, r: map[int64]bool{}}
		for x := int64(0); x < 4; x++ {
			switch rnd.Intn(3) {
			case 0:
				pre.l[x] = true
				v.LocalTable("B").Insert(MakeTuple(int(x), int(x)))
			case 1:
				pre.r[x] = true
				v.RejectTable("B").Insert(MakeTuple(int(x), int(x)))
			}
		}
		// Random log.
		var log EditLog
		n := 1 + rnd.Intn(8)
		for i := 0; i < n; i++ {
			x := int(rnd.Int63n(4))
			if rnd.Intn(2) == 0 {
				log = append(log, Ins("B", MakeTuple(x, x)))
			} else {
				log = append(log, Del("B", MakeTuple(x, x)))
			}
		}

		// Naive replay of the §3.1 semantics.
		want := state{l: map[int64]bool{}, r: map[int64]bool{}}
		for k, b := range pre.l {
			want.l[k] = b
		}
		for k, b := range pre.r {
			want.r[k] = b
		}
		for _, e := range log {
			x := e.Tuple[0].AsInt()
			if e.Insert {
				delete(want.r, x)
				want.l[x] = true
			} else {
				if want.l[x] {
					delete(want.l, x)
				} else {
					want.r[x] = true
				}
			}
		}

		dl, dr, err := NetEffect(log, v.DB())
		if err != nil {
			t.Fatal(err)
		}
		// Apply deltas to the pre-state tables.
		lt, rt := v.LocalTable("B"), v.RejectTable("B")
		for _, tu := range dl.At("B").Del() {
			lt.Delete(tu)
		}
		for _, tu := range dl.At("B").Ins() {
			lt.Insert(tu)
		}
		for _, tu := range dr.At("B").Del() {
			rt.Delete(tu)
		}
		for _, tu := range dr.At("B").Ins() {
			rt.Insert(tu)
		}

		for x := int64(0); x < 4; x++ {
			tu := MakeTuple(int(x), int(x))
			if lt.Contains(tu) != want.l[x] {
				t.Fatalf("trial %d: L[%d] = %v, want %v (log %v)", trial, x, lt.Contains(tu), want.l[x], log)
			}
			if rt.Contains(tu) != want.r[x] {
				t.Fatalf("trial %d: R[%d] = %v, want %v (log %v)", trial, x, rt.Contains(tu), want.r[x], log)
			}
		}
	}
}

func TestEditString(t *testing.T) {
	if Ins("R", MakeTuple(1, 2)).String() != "+R(1, 2)" {
		t.Fatal("insert render")
	}
	if Del("R", MakeTuple(1)).String() != "-R(1)" {
		t.Fatal("delete render")
	}
	// A string constant prints quoted, never as the integer it spells.
	if got := Ins("R", MakeTuple("5")).String(); got != `+R("5")` {
		t.Fatalf("string render = %s", got)
	}
	if got := MakeTuple(5, "5").String(); got != `(5, "5")` {
		t.Fatalf("mixed tuple render = %s", got)
	}
}

// NetEffect must be a no-op for logs that cancel themselves out.
func TestNetEffectSelfCancelling(t *testing.T) {
	v, err := NewView(paperSpec(t, nil), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := EditLog{
		Ins("B", MakeTuple(1, 1)),
		Del("B", MakeTuple(1, 1)),
		Ins("B", MakeTuple(2, 2)),
		Del("B", MakeTuple(2, 2)),
	}
	dl, dr, err := NetEffect(log, v.DB())
	if err != nil {
		t.Fatal(err)
	}
	if !dl.Empty() || !dr.Empty() {
		t.Fatalf("self-cancelling log produced deltas: %v %v", dl, dr)
	}
}
