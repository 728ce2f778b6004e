package logstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"orchestra/internal/core"
)

// TestShardedAppendFetchReopen checks the sharded bus's basic durable
// contract: appends from several peers land in one total order with
// exact per-shard positions, and reopening the directory replays the
// identical sequence.
func TestShardedAppendFetchReopen(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "bus.shards")
	b, err := OpenShardedBus(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{"A", "B", "A", "C", "B", "A"}
	for i, peer := range peers {
		if err := b.Append(ctx, peer, core.EditLog{core.Ins("R", core.MakeTuple(i))}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(b *ShardedBus, when string) {
		t.Helper()
		deltas, next, err := b.Fetch(ctx, core.Cursor{})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(deltas) != len(peers) {
			t.Fatalf("%s: %d deltas, want %d", when, len(deltas), len(peers))
		}
		shardSeen := map[string]int{}
		for i, d := range deltas {
			if d.Pub.Peer != peers[i] || d.Shard != peers[i] {
				t.Fatalf("%s: delta %d owned by %s/%s, want %s", when, i, d.Shard, d.Pub.Peer, peers[i])
			}
			shardSeen[d.Shard]++
			if d.Pos != shardSeen[d.Shard] {
				t.Fatalf("%s: delta %d has shard position %d, want %d", when, i, d.Pos, shardSeen[d.Shard])
			}
		}
		if next.Total() != len(peers) ||
			next.Shard("A") != 3 || next.Shard("B") != 2 || next.Shard("C") != 1 {
			t.Fatalf("%s: horizon %v", when, next)
		}
	}
	check(b, "first open")
	if got, want := b.Shards(), 3; len(got) != want {
		t.Fatalf("shards %v, want %d", got, want)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenShardedBus(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	check(b2, "reopened")
}

// TestShardedLegacyMigration checks the one-shot migration: an old
// single-file bus log is rewritten into the sharded layout with its
// global order preserved, and the legacy file is gone afterwards.
func TestShardedLegacyMigration(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	legacyPath := filepath.Join(root, "bus.olg")
	legacy, err := Open(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{"A", "B", "A"}
	for i, peer := range peers {
		if err := legacy.Append(peer, core.EditLog{core.Ins("R", core.MakeTuple(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(root, "bus.shards")
	b, err := OpenShardedBus(dir, legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	deltas, next, err := b.Fetch(ctx, core.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != len(peers) || next.Total() != len(peers) || next.Shard("A") != 2 || next.Shard("B") != 1 {
		t.Fatalf("migrated %d deltas, horizon %v", len(deltas), next)
	}
	for i, d := range deltas {
		if d.Pub.Peer != peers[i] {
			t.Fatalf("delta %d owned by %s, want %s (order lost in migration)", i, d.Pub.Peer, peers[i])
		}
		if d.Pub.Log[0].Tuple.String() != core.MakeTuple(i).String() {
			t.Fatalf("delta %d carries %v", i, d.Pub.Log[0].Tuple)
		}
	}
	if _, err := os.Stat(legacyPath); !os.IsNotExist(err) {
		t.Fatalf("legacy log still present after migration: %v", err)
	}
	// Reopening migrates nothing (the sharded dir is authoritative).
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenShardedBus(dir, legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if h, err := b2.Horizon(ctx); err != nil || h.Total() != len(peers) {
		t.Fatalf("reopen after migration: horizon %v, err %v, want %d", h, err, len(peers))
	}
}

// TestShardedSubscribe checks push delivery from the durable bus:
// a subscription sees appends as they happen, in global order.
func TestShardedSubscribe(t *testing.T) {
	ctx := context.Background()
	b, err := OpenShardedBus(filepath.Join(t.TempDir(), "bus.shards"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ch, cancel, err := b.Subscribe(ctx, core.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	peers := []string{"A", "B", "A"}
	for i, peer := range peers {
		if err := b.Append(ctx, peer, core.EditLog{core.Ins("R", core.MakeTuple(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i, peer := range peers {
		select {
		case d := <-ch:
			if d.Shard != peer {
				t.Fatalf("delta %d from shard %s, want %s", i, d.Shard, peer)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delta %d", i)
		}
	}
}

// TestShardedConcurrentAppends hammers the watermark commit: many
// goroutines appending to different shards concurrently must produce a
// gapless, contiguous global order (no publication acknowledged before
// a lower-numbered one becomes visible, none lost). Run with -race.
func TestShardedConcurrentAppends(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "bus.shards")
	b, err := OpenShardedBus(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	const peersN, perPeer = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, peersN*perPeer)
	for p := 0; p < peersN; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			peer := fmt.Sprintf("P%d", p)
			for i := 0; i < perPeer; i++ {
				if err := b.Append(ctx, peer, core.EditLog{core.Ins("R", core.MakeTuple(p, i))}); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	verify := func(b *ShardedBus, when string) {
		t.Helper()
		deltas, next, err := b.Fetch(ctx, core.Cursor{})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(deltas) != peersN*perPeer || next.Total() != peersN*perPeer {
			t.Fatalf("%s: %d deltas, horizon %v, want %d", when, len(deltas), next, peersN*perPeer)
		}
		// Per shard, positions are contiguous from 1 and payloads in
		// publish order (each goroutine published i ascending).
		seen := map[string]int{}
		for _, d := range deltas {
			seen[d.Shard]++
			if d.Pos != seen[d.Shard] {
				t.Fatalf("%s: shard %s position %d, want %d", when, d.Shard, d.Pos, seen[d.Shard])
			}
		}
		for peer, n := range seen {
			if n != perPeer {
				t.Fatalf("%s: shard %s holds %d, want %d", when, peer, n, perPeer)
			}
		}
	}
	verify(b, "live")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenShardedBus(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	verify(b2, "replayed")
}
