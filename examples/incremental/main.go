// Incremental: provenance-driven deletion (paper §4.2 and §6.3), driven
// through the public orchestra API.
//
// Loads a 5-peer, full-mappings CDSS (Figure 4's setting), then deletes a
// growing share of the base data and reports what the incremental
// algorithm (Fig. 3) did: exchange time and the goal-directed work in
// ApplyStats. Each result is checked against a fresh System rebuilt from
// the same publications. The comparison with DRed and full
// recomputation is Figure 4 itself: go run ./cmd/benchfig -fig 4.
//
// Run with: go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"orchestra"
)

const baseEntries = 60

func buildLoaded(ctx context.Context) (*orchestra.Workload, *orchestra.System) {
	w, err := orchestra.NewWorkload(orchestra.WorkloadConfig{
		Peers:    5,
		Topology: orchestra.TopologyComplete,
		AttrMode: orchestra.AttrsShared, // full tgds: the paper's "full mappings"
		Dataset:  orchestra.DatasetInteger,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := orchestra.New(w.Spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, peer := range w.PeerNames() {
		if err := sys.Publish(ctx, peer, w.GenInsertions(peer, baseEntries)); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := sys.Exchange(ctx, ""); err != nil {
		log.Fatal(err)
	}
	return w, sys
}

func main() {
	ctx := context.Background()
	fmt.Printf("%-6s  %-10s  %-8s  %-9s  %-8s  %-9s  %s\n",
		"del%", "exchange", "tuples-", "provrows-", "checked", "rederived", "matches rebuild?")

	for _, pct := range []int{10, 30, 50, 70} {
		w, sys := buildLoaded(ctx)
		n := baseEntries * pct / 100
		for _, peer := range w.PeerNames() {
			if err := sys.Publish(ctx, peer, w.GenDeletions(peer, n)); err != nil {
				log.Fatal(err)
			}
		}
		start := time.Now()
		st, err := sys.Exchange(ctx, "")
		if err != nil {
			log.Fatal(err)
		}
		took := time.Since(start).Round(time.Millisecond)

		// A fresh System replaying the same publications from zero is
		// the consistent state (Def. 3.1) the incremental pass must reach.
		fresh, err := orchestra.New(w.Spec, orchestra.WithBus(sys.Bus()))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := fresh.Exchange(ctx, ""); err != nil {
			log.Fatal(err)
		}
		got, err := sys.TotalRows("")
		if err != nil {
			log.Fatal(err)
		}
		want, err := fresh.TotalRows("")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d  %-10s  %-8d  %-9d  %-8d  %-9d  %v (%d rows)\n",
			pct, took, st.TuplesDeleted, st.ProvRowsDeleted, st.Checked, st.Rederived, got == want, got)
		if got != want {
			log.Fatalf("incremental deletion diverged from the rebuild: %d vs %d rows", got, want)
		}
	}
	fmt.Println("\nThe provenance-driven algorithm does goal-directed work proportional")
	fmt.Println("to the deleted share. For DRed and full recomputation on the same")
	fmt.Println("setting, run: go run ./cmd/benchfig -fig 4")
}
