package logstore

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"orchestra/internal/core"
	"orchestra/internal/obs"
)

// shardPrefix/shardSuffix frame the per-shard segment file names inside
// a sharded bus directory: shard-<hex(peer)>.olg. Hex encoding keeps
// arbitrary peer names filesystem-safe and the mapping bijective.
const (
	shardPrefix = "shard-"
	shardSuffix = ".olg"
)

func shardFileName(peer string) string {
	return shardPrefix + hex.EncodeToString([]byte(peer)) + shardSuffix
}

// shardSegments lists the shard segment files inside dir, sorted by
// name (the order is irrelevant — replay merges by sequence number).
func shardSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, shardPrefix) && strings.HasSuffix(name, shardSuffix) {
			segs = append(segs, filepath.Join(dir, name))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// shardPeer inverts shardFileName.
func shardPeer(path string) (string, error) {
	name := filepath.Base(path)
	enc := strings.TrimSuffix(strings.TrimPrefix(name, shardPrefix), shardSuffix)
	peer, err := hex.DecodeString(enc)
	if err != nil {
		return "", fmt.Errorf("logstore: bad shard file name %q: %w", name, err)
	}
	return string(peer), nil
}

// ShardedBus is the durable publication bus partitioned by owning peer:
// one append-only segment file per shard, all inside one directory.
// Appends to different shards fsync concurrently — each segment has its
// own writer lock — while a global sequence number stamped into every
// frame ('Q' trailer) keeps the fetchable order total: a publication
// becomes visible to Fetch/Subscribe only once every lower-numbered
// publication is visible (the watermark commit), so consumers always
// observe a contiguous prefix of the global order.
//
// Crash safety: a sequence number is only observable (fetchable,
// pushed, or acknowledged to the publisher) after its own frame is
// durable AND the watermark has passed it. A crash can therefore leave
// gaps in the durable sequence — higher-numbered frames whose
// lower-numbered sibling never hit its segment — but only for
// publications that were never acknowledged. Replay sorts all segments'
// frames by sequence number and tolerates the gaps.
type ShardedBus struct {
	dir     string
	mem     *core.MemoryBus
	metrics Metrics

	mu         sync.Mutex
	shards     map[string]*Store
	seq        uint64 // last assigned sequence number
	nextCommit uint64 // next sequence number to publish to mem
	// parked holds durable publications waiting for the watermark; a
	// nil entry is an aborted append (its segment write failed after
	// the sequence number was assigned), which commits as a no-op.
	parked   map[uint64]*parkedPub
	repaired int64
	closed   bool
}

type parkedPub struct {
	peer    string
	log     core.EditLog
	traceID string
}

// OpenShardedBus opens (or creates) a sharded durable bus in dir. If
// legacyPath names an existing single-file bus log and dir does not
// exist yet, the log is migrated one-shot: its publications are
// rewritten into per-shard segments (stamped with their original
// global order) in a temporary directory, which is atomically renamed
// to dir before the legacy file is removed. A crash mid-migration
// leaves either the legacy file (tmp dir discarded, migration redone)
// or the complete dir (legacy file removed on the next open) — never a
// half state.
func OpenShardedBus(dir, legacyPath string) (*ShardedBus, error) {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		if legacyPath != "" {
			if _, lerr := os.Stat(legacyPath); lerr == nil {
				if err := migrateFlatLog(dir, legacyPath); err != nil {
					return nil, err
				}
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	// dir exists: a legacy file still present was fully migrated (the
	// rename committed before removal) — finish the cleanup.
	if legacyPath != "" {
		if _, err := os.Stat(legacyPath); err == nil {
			if err := os.Remove(legacyPath); err != nil {
				return nil, fmt.Errorf("logstore: removing migrated legacy bus log: %w", err)
			}
		}
	}

	b := &ShardedBus{
		dir:    dir,
		mem:    core.NewMemoryBus(),
		shards: make(map[string]*Store),
		parked: make(map[uint64]*parkedPub),
	}
	segs, err := shardSegments(dir)
	if err != nil {
		return nil, err
	}
	type seqPub struct {
		seq uint64
		pub Publication
	}
	var all []seqPub
	for _, seg := range segs {
		peer, err := shardPeer(seg)
		if err != nil {
			b.closeShards()
			return nil, err
		}
		st, err := Open(seg)
		if err != nil {
			b.closeShards()
			return nil, err
		}
		b.shards[peer] = st
		b.repaired += st.RepairedBytes()
		pubs, err := st.Replay()
		if err != nil {
			b.closeShards()
			return nil, err
		}
		for i, p := range pubs {
			if p.Seq == 0 {
				b.closeShards()
				return nil, fmt.Errorf("logstore: shard %s publication %d has no sequence number", seg, i)
			}
			if p.Peer != peer {
				b.closeShards()
				return nil, fmt.Errorf("logstore: shard %s publication %d owned by %q", seg, i, p.Peer)
			}
			all = append(all, seqPub{seq: p.Seq, pub: p})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for i, sp := range all {
		if i > 0 && sp.seq == all[i-1].seq {
			b.closeShards()
			return nil, fmt.Errorf("logstore: duplicate sequence number %d across shards", sp.seq)
		}
		if _, err := b.mem.Preload(sp.pub.Peer, sp.pub.Log, sp.pub.TraceID); err != nil {
			b.closeShards()
			return nil, fmt.Errorf("logstore: reloading publication seq %d: %w", sp.seq, err)
		}
	}
	if n := len(all); n > 0 {
		b.seq = all[n-1].seq
	}
	b.nextCommit = b.seq + 1
	return b, nil
}

// migrateFlatLog rewrites a single-file bus log into a sharded
// directory. The temporary directory commits by rename; the caller
// removes the legacy file after the rename is durable.
func migrateFlatLog(dir, legacyPath string) error {
	st, err := Open(legacyPath)
	if err != nil {
		return fmt.Errorf("logstore: opening legacy bus log for migration: %w", err)
	}
	pubs, err := st.Replay()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("logstore: replaying legacy bus log for migration: %w", err)
	}

	tmp := dir + ".migrating"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	stores := make(map[string]*Store)
	closeAll := func() {
		for _, s := range stores {
			s.Close()
		}
	}
	for i, p := range pubs {
		s, ok := stores[p.Peer]
		if !ok {
			s, err = Open(filepath.Join(tmp, shardFileName(p.Peer)))
			if err != nil {
				closeAll()
				return err
			}
			stores[p.Peer] = s
		}
		// Position in the legacy file is the global order; 1-based.
		if err := s.AppendSeq(p.Peer, p.Log, p.TraceID, uint64(i)+1); err != nil {
			closeAll()
			return err
		}
	}
	closeAll()
	if err := syncDir(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	return os.Remove(legacyPath)
}

// syncDir fsyncs a directory so renames and file creations inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (b *ShardedBus) closeShards() {
	for _, s := range b.shards {
		s.Close()
	}
}

// SetMetrics installs append instruments on every shard segment
// (including ones created by later Appends).
func (b *ShardedBus) SetMetrics(m Metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics = m
	for _, s := range b.shards {
		s.SetMetrics(m)
	}
}

// shardFor returns (creating if needed) the peer's segment store and
// assigns the next global sequence number, under b.mu.
func (b *ShardedBus) shardFor(peer string) (*Store, uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, 0, fmt.Errorf("logstore: bus is closed")
	}
	s, ok := b.shards[peer]
	if !ok {
		var err error
		s, err = Open(filepath.Join(b.dir, shardFileName(peer)))
		if err != nil {
			return nil, 0, err
		}
		s.SetMetrics(b.metrics)
		b.shards[peer] = s
	}
	b.seq++
	return s, b.seq, nil
}

// commit parks a durable publication (or an aborted append, pub nil)
// at seq and drains every contiguously committed publication into the
// in-memory mirror, waking subscribers. Once a frame is durable the
// mirror publish must succeed; failure would desync file and memory,
// so Preload errors are impossible by construction (peer is validated
// before the sequence number is assigned).
func (b *ShardedBus) commit(seq uint64, pub *parkedPub) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parked[seq] = pub
	var err error
	for {
		p, ok := b.parked[b.nextCommit]
		if !ok {
			return err
		}
		delete(b.parked, b.nextCommit)
		if p != nil {
			if _, perr := b.mem.Preload(p.peer, p.log, p.traceID); perr != nil && err == nil {
				err = perr
			}
		}
		b.nextCommit++
	}
}

// Append implements core.BusAppender. The shard segment append —
// encode, write, fsync — runs outside the bus lock, so publications to
// different peers' shards proceed concurrently; only sequence-number
// assignment and the watermark commit serialize.
func (b *ShardedBus) Append(ctx context.Context, peer string, log core.EditLog) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if peer == "" {
		return fmt.Errorf("logstore: publication without peer")
	}
	traceID := obs.TraceIDFromContext(ctx)
	s, seq, err := b.shardFor(peer)
	if err != nil {
		return err
	}
	if err := s.AppendSeq(peer, log, traceID, seq); err != nil {
		// The sequence number is burned: commit it as a hole so later
		// publications do not wait on it forever.
		b.commit(seq, nil)
		return err
	}
	return b.commit(seq, &parkedPub{peer: peer, log: log, traceID: traceID})
}

// Fetch implements core.BusReader over the committed (contiguous,
// durable) prefix.
func (b *ShardedBus) Fetch(ctx context.Context, from core.Cursor) ([]core.Delta, core.Cursor, error) {
	return b.mem.Fetch(ctx, from)
}

// Horizon implements core.BusReader.
func (b *ShardedBus) Horizon(ctx context.Context) (core.Cursor, error) {
	return b.mem.Horizon(ctx)
}

// Subscribe implements core.BusWatcher. Deltas are delivered only once
// durable and watermark-committed.
func (b *ShardedBus) Subscribe(ctx context.Context, from core.Cursor) (<-chan core.Delta, core.CancelFunc, error) {
	return b.mem.Subscribe(ctx, from)
}

// RepairedBytes reports how many bytes of torn shard tails were
// dropped when the bus was opened (0 when all segments were clean).
func (b *ShardedBus) RepairedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.repaired
}

// Path returns the bus's shard directory.
func (b *ShardedBus) Path() string { return b.dir }

// Shards returns the shard names present on disk, sorted.
func (b *ShardedBus) Shards() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.shards))
	for name := range b.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close closes every shard segment. The in-memory sequence stays
// readable; further Appends fail.
func (b *ShardedBus) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	var err error
	for _, s := range b.shards {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
