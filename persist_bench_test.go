package orchestra_test

import (
	"context"
	"path/filepath"
	"testing"

	"orchestra"
)

// BenchmarkRecoveryVsRecompute measures what the statestore buys on
// restart: recovering a view from its checkpoint (snapshot load, no
// publications to replay) versus rebuilding it by re-exchanging the
// full durable publication log from cursor zero.
func BenchmarkRecoveryVsRecompute(b *testing.B) {
	parsed, err := orchestra.ParseSpecString(testCDSS)
	if err != nil {
		b.Fatal(err)
	}
	sp := parsed.Spec
	ctx := context.Background()
	dir := b.TempDir()
	busDir := filepath.Join(dir, "bus.shards")

	// Seed the durable state: a checkpointed view over a long history.
	seed, err := orchestra.New(sp, orchestra.WithPersistence(dir))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range randomHistory(1, 60) {
		if err := seed.Publish(ctx, p.peer, p.log); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := seed.Exchange(ctx, ""); err != nil {
		b.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := orchestra.New(sp, orchestra.WithPersistence(dir))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Exchange(ctx, ""); err != nil { // nothing past the cursor
				b.Fatal(err)
			}
			sys.Close()
		}
	})

	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bus, err := orchestra.OpenShardedFileBus(busDir, "")
			if err != nil {
				b.Fatal(err)
			}
			sys, err := orchestra.New(sp, orchestra.WithBus(bus))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Exchange(ctx, ""); err != nil { // full replay
				b.Fatal(err)
			}
			bus.Close()
		}
	})
}
