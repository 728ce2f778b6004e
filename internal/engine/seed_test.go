package engine

import (
	"context"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/value"
)

// TestRunRules checks the seeded evaluation behind spec
// evolution: after a program gains rules, seeding with only the new
// rules reaches the same fixpoint a full run reaches, without naively
// re-firing the old rules.
func TestRunRules(t *testing.T) {
	for _, be := range backends() {
		t.Run(be.String(), func(t *testing.T) {
			build := func(withNew bool) (*Evaluator, *value.SkolemTable) {
				db := newDB(map[string]int{"edge": 2, "tc": 2, "rev": 2})
				e := db.Table("edge")
				for _, pair := range [][2]int64{{1, 2}, {2, 3}, {3, 4}} {
					e.Insert(tup(pair[0], pair[1]))
				}
				rules := []*datalog.Rule{
					datalog.NewRule("base", datalog.NewAtom("tc", datalog.V("x"), datalog.V("y")),
						datalog.Pos(datalog.NewAtom("edge", datalog.V("x"), datalog.V("y")))),
					datalog.NewRule("step", datalog.NewAtom("tc", datalog.V("x"), datalog.V("z")),
						datalog.Pos(datalog.NewAtom("tc", datalog.V("x"), datalog.V("y"))),
						datalog.Pos(datalog.NewAtom("edge", datalog.V("y"), datalog.V("z")))),
				}
				if withNew {
					// The "evolved" rule: reverse of the closure, feeding back
					// through the recursive step.
					rules = append(rules, datalog.NewRule("newrule",
						datalog.NewAtom("rev", datalog.V("y"), datalog.V("x")),
						datalog.Pos(datalog.NewAtom("tc", datalog.V("x"), datalog.V("y")))))
				}
				sk := value.NewSkolemTable()
				ev, err := New(datalog.NewProgram(rules...), db, sk, Options{Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				return ev, sk
			}

			// Old program to fixpoint, then recompile the extended program
			// over the same database and seed only the new rule.
			old, _ := build(false)
			if _, err := old.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			full, _ := build(true)
			dbOld := old.DB()
			ev2, err := New(datalog.NewProgram(full.Program().Rules...), dbOld, value.NewSkolemTable(), Options{Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := ev2.RunRules(context.Background(), func(id string) bool { return id == "newrule" })
			if err != nil {
				t.Fatal(err)
			}
			if stats.Derived != 6 {
				t.Fatalf("seeded run derived %d tuples, want 6 (|tc|)", stats.Derived)
			}

			// Oracle: full fresh run.
			fresh, _ := build(true)
			if _, err := fresh.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, rel := range []string{"tc", "rev"} {
				got, want := dbOld.Table(rel), fresh.DB().Table(rel)
				if got.Len() != want.Len() {
					t.Fatalf("%s: %d rows, want %d", rel, got.Len(), want.Len())
				}
				want.Each(func(row value.Tuple) bool {
					if !got.Contains(row) {
						t.Fatalf("%s missing %v", rel, row)
					}
					return true
				})
			}

			// Seeding with no matching rules is a no-op.
			st, err := ev2.RunRules(context.Background(), func(string) bool { return false })
			if err != nil {
				t.Fatal(err)
			}
			if st.Derived != 0 {
				t.Fatalf("empty seed derived %d tuples", st.Derived)
			}
		})
	}
}
