// Package orchestra is a from-scratch Go reproduction of "Update Exchange
// with Mappings and Provenance" (Green, Karvounarakis, Ives, Tannen; VLDB
// 2007 / UPenn TR MS-CIS-07-26) — the Orchestra collaborative data
// sharing system (CDSS).
//
// This package is the one supported way to drive the system. Build a
// System over a parsed spec, publish edit logs, and run update exchange:
//
//	parsed, _ := orchestra.ParseSpecString(cdss)
//	sys, _ := orchestra.New(parsed.Spec)
//	sys.Publish(ctx, "PGUS", orchestra.EditLog{orchestra.Ins("G", orchestra.MakeTuple(1, 2, 3))})
//	sys.Exchange(ctx, "")                                 // import into the global view
//	rows, _ := sys.Query(ctx, "", "ans(x,y) :- U(x,y)", false)
//	info, _ := sys.Provenance(ctx, "", "B", orchestra.MakeTuple(3, 2))
//
// Every operation takes a context.Context; cancellation reaches the
// engine's fixpoint loops and the provenance equation solver. A System
// is safe for concurrent use: exchanges of different peers' views run in
// parallel, operations on one view are serialized. ExchangeAll exploits
// exactly that — the per-view passes run concurrently over a bounded
// worker pool (WithExchangeParallelism), and each pass coalesces its
// pending publications into one net apply; neither is observable in
// any view's final state. Maintenance runs the paper's indexed engine
// and provenance-driven deletion; the baselines it is compared against
// (DRed, recomputation, the hash backend) are figure modes of
// cmd/benchfig, not options.
//
// Publications travel over a publication bus sharded by owning peer.
// The bus surface is three composable capabilities — BusAppender,
// BusReader, and BusWatcher (push subscriptions) — with PublicationBus
// their union; WithBus accepts any appender+reader and detects the
// watcher capability, so pull-only implementations still work. The
// default in-memory bus runs everything
// embedded in one process; NewHTTPBus connects the identical
// application code to a shared publication service (BusServer, run
// standalone as cmd/orchestrad), giving the paper's federated
// operating mode. StartPush subscribes the System to its bus so
// publications are applied as they arrive instead of on the next
// Exchange call.
//
// A bus position is the opaque, shard-aware Cursor (String/ParseCursor
// give its durable form); Cursor.Total is the publication count it
// stands after, which is what the int cursors in ViewStat and
// ViewState report.
//
// WithPersistence(dir) makes a System crash-safe: views are
// checkpointed — checksummed snapshot plus bus cursor, written
// atomically — into a state directory, the default bus is replaced by
// a durable sharded log co-located there, and New recovers every
// persisted view, so the next Exchange replays only the publications
// past its checkpoint (see examples/durability).
//
// The spec is not frozen at New: AddPeer, AddMapping, RemoveMapping,
// SetTrust, and ApplyDiff evolve the running confederation, validating
// every intermediate spec and repairing materialized state in place —
// added mappings seed a fixpoint round, removed mappings and revoked
// trust delete exactly the tuples whose every derivation they carried
// (provenance-based deletion generalized to rule deletions). The result
// is always identical to a fresh System built from the final spec (see
// examples/evolution).
//
// The implementation lives under internal/ (see DESIGN.md for the
// system inventory); runnable entry points are:
//
//   - cmd/orchestra    — update exchange, queries, and provenance over
//     CDSS spec files;
//   - cmd/orchestrad   — the shared publication service;
//   - cmd/workloadgen  — §6.1 synthetic workload generation;
//   - cmd/benchfig     — regeneration of the paper's Figures 4–10,
//     baselines included;
//   - examples/…       — quickstart and domain scenarios, all written
//     against this package.
//
// The benchmarks in bench_test.go exercise the same per-figure harness
// under `go test -bench`. Performance claims are measured with the
// repository benchmark in bench/ (see bench/README.md).
package orchestra
