package workload

import (
	"context"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/engine"
	"orchestra/internal/swissprot"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Peers: 4, Seed: 7, Topology: TopologyRandom}
	w1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Spec.Mappings) != len(w2.Spec.Mappings) {
		t.Fatal("mapping counts differ across identical seeds")
	}
	for i := range w1.Spec.Mappings {
		if w1.Spec.Mappings[i].String() != w2.Spec.Mappings[i].String() {
			t.Fatalf("mapping %d differs:\n%s\n%s", i, w1.Spec.Mappings[i], w2.Spec.Mappings[i])
		}
	}
	l1 := w1.GenInsertions("p1", 3)
	l2 := w2.GenInsertions("p1", 3)
	if len(l1) != len(l2) {
		t.Fatal("insertion logs differ")
	}
	for i := range l1 {
		if l1[i].String() != l2[i].String() {
			t.Fatalf("edit %d differs: %s vs %s", i, l1[i], l2[i])
		}
	}
}

func TestSchemaShape(t *testing.T) {
	w, err := New(Config{Peers: 5, Seed: 3, MaxRelsPerPeer: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.PeerNames()) != 5 {
		t.Fatalf("peers: %v", w.PeerNames())
	}
	for _, p := range w.Spec.Universe.Peers() {
		rels := p.Schema.Relations()
		if len(rels) < 1 || len(rels) > 3 {
			t.Fatalf("peer %s has %d relations", p.Name, len(rels))
		}
		attrs := 0
		for _, r := range rels {
			if r.Cols[0].Name != "key" {
				t.Fatalf("relation %s lacks leading key", r.Name)
			}
			attrs += r.Arity() - 1
		}
		if attrs < 6 || attrs > 12 {
			t.Fatalf("peer %s has %d attributes", p.Name, attrs)
		}
	}
}

func TestTopologies(t *testing.T) {
	chain, err := New(Config{Peers: 5, Seed: 1, Topology: TopologyChain})
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Spec.Mappings) != 4 {
		t.Fatalf("chain mappings = %d", len(chain.Spec.Mappings))
	}
	// Complete topology requires full tgds (AttrsShared) — the paper's
	// "full mappings" setting — otherwise weak acyclicity fails.
	full, err := New(Config{Peers: 5, Seed: 1, Topology: TopologyComplete, AttrMode: AttrsShared})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Spec.Mappings) != 20 {
		t.Fatalf("complete mappings = %d", len(full.Spec.Mappings))
	}
	for _, m := range full.Spec.Mappings {
		if len(m.ExistentialVars()) != 0 {
			t.Fatalf("full mapping %s has existentials", m.ID)
		}
	}
	if _, err := New(Config{Peers: 5, Seed: 1, Topology: TopologyComplete, AttrMode: AttrsRandom}); err == nil {
		t.Fatal("complete topology with random attrs should fail weak acyclicity")
	}
	rnd, err := New(Config{Peers: 6, Seed: 1, Topology: TopologyRandom, AvgNeighbors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rnd.Spec.Mappings) < 5 {
		t.Fatalf("random mappings = %d", len(rnd.Spec.Mappings))
	}
}

func TestExtraCyclesStillWeaklyAcyclic(t *testing.T) {
	// With nested attribute subsets, reverse mappings are full tgds, so
	// topology cycles keep the set weakly acyclic (Fig. 10's setting);
	// NewSpec would reject otherwise.
	for cycles := 0; cycles <= 3; cycles++ {
		w, err := New(Config{Peers: 5, Seed: 2, Topology: TopologyRandom, ExtraCycles: cycles, AttrMode: AttrsNested})
		if err != nil {
			t.Fatalf("cycles=%d: %v", cycles, err)
		}
		want := len(w.Edges)
		if len(w.Spec.Mappings) != want {
			t.Fatalf("cycles=%d: mappings %d != edges %d", cycles, len(w.Spec.Mappings), want)
		}
	}
	// Cycle workloads must actually run to fixpoint.
	w, err := New(Config{Peers: 3, Seed: 5, Topology: TopologyRandom, ExtraCycles: 2, Dataset: DatasetInteger, AttrMode: AttrsNested})
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.NewView(w.Spec, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range w.GenBase(5) {
		if _, err := v.ApplyEdits(context.Background(), log, core.DeleteProvenance); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInsertionsAndDeletions(t *testing.T) {
	w, err := New(Config{Peers: 2, Seed: 9, Dataset: DatasetInteger})
	if err != nil {
		t.Fatal(err)
	}
	ins := w.GenInsertions("p1", 4)
	nRels := len(w.Spec.Universe.Peer("p1").Schema.Relations())
	if len(ins) != 4*nRels {
		t.Fatalf("insertion log has %d edits, want %d", len(ins), 4*nRels)
	}
	if w.InsertedEntries("p1") != 4 {
		t.Fatal("InsertedEntries")
	}
	del := w.GenDeletions("p1", 2)
	if len(del) != 2*nRels {
		t.Fatalf("deletion log has %d edits, want %d", len(del), 2*nRels)
	}
	for _, e := range del {
		if e.Insert {
			t.Fatal("deletion log contains insert")
		}
	}
	if w.InsertedEntries("p1") != 2 {
		t.Fatal("InsertedEntries after deletion")
	}
	// Deleting more than available clamps.
	if got := w.GenDeletions("p1", 10); len(got) != 2*nRels {
		t.Fatalf("over-deletion log has %d edits", len(got))
	}
}

func TestDatasets(t *testing.T) {
	ws, _ := New(Config{Peers: 2, Seed: 4, Dataset: DatasetString})
	wi, _ := New(Config{Peers: 2, Seed: 4, Dataset: DatasetInteger})
	ls := ws.GenInsertions("p1", 1)
	li := wi.GenInsertions("p1", 1)
	var sBytes, iBytes int
	for _, e := range ls {
		sBytes += e.Tuple.EncodedLen()
	}
	for _, e := range li {
		iBytes += e.Tuple.EncodedLen()
	}
	if sBytes <= iBytes {
		t.Fatalf("string tuples (%dB) should be larger than integer tuples (%dB)", sBytes, iBytes)
	}
}

func TestEndToEndExchange(t *testing.T) {
	// A small workload flows data across the chain, including nulls for
	// target-only attributes, on both backends.
	for _, be := range []engine.Backend{engine.BackendIndexed, engine.BackendHash} {
		w, err := New(Config{Peers: 3, Seed: 11, Dataset: DatasetInteger, Topology: TopologyChain})
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.NewView(w.Spec, "", core.Options{Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range w.PeerNames() {
			if _, err := v.ApplyEdits(context.Background(), w.GenInsertions(peer, 3), core.DeleteProvenance); err != nil {
				t.Fatal(err)
			}
		}
		// Every relation of the downstream peer must have input tuples.
		last := w.PeerNames()[len(w.PeerNames())-1]
		for _, rel := range w.Spec.Universe.Peer(last).Schema.Relations() {
			if v.InputTable(rel.Name).Len() == 0 {
				t.Fatalf("backend %s: no data mapped into %s", be, rel.Name)
			}
		}
		// Incremental deletion equals recomputation on this workload.
		delLog := w.GenDeletions(w.PeerNames()[0], 1)
		if _, err := v.ApplyEdits(context.Background(), delLog, core.DeleteProvenance); err != nil {
			t.Fatal(err)
		}
		if _, err := v.FullRecompute(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSwissprotEntryShape(t *testing.T) {
	r := newSeeded(5)
	e := swissprot.Generate(r)
	if len(e.Fields[24]) < 100 {
		t.Fatal("sequence too short")
	}
	if e.Fields[3] != "PRT" {
		t.Fatal("molecule type")
	}
	// Integer hashing is deterministic and non-negative.
	v1, v2 := e.IntValue(8), e.IntValue(8)
	if v1 != v2 || v1.AsInt() < 0 {
		t.Fatal("IntValue")
	}
}
