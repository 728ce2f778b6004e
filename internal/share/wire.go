// Package share implements the CDSS communications layer (§2, §5): a
// small HTTP service through which peers make their edit logs "globally
// available", and a client with which other nodes fetch — or stream —
// the publications they have not yet imported. Together with
// internal/logstore this plays the role of Orchestra's
// central/distributed publication storage [34].
//
// Wire protocol (JSON):
//
//	POST /publish   {"peer": "...", "edits": [{"op":"+","rel":"R","key":"base64"}]}
//	GET  /fetch?cursor=C      → {"cursor": "v1:...", "deltas": [...]}
//	GET  /horizon             → {"cursor": "v1:..."}
//	GET  /watch?cursor=C      → NDJSON stream of deltas (chunked, long-lived)
//
// /fetch and /watch take the durable form of a core.Cursor (see
// core.ParseCursor) and return per-shard positions with every delta, so
// a follower can verify contiguity and resume a broken stream exactly
// where it stopped. /watch holds the connection open and pushes each
// publication as its own NDJSON line the moment it is accepted; blank
// lines are heartbeats and may be ignored. Tuples travel as base64 of
// their canonical encoding, so values of any kind round-trip exactly.
//
// Lineage: a publish carries its trace id in a W3C-shaped `traceparent`
// request header (minted by the server when absent, echoed back in the
// response body as "trace"), and every fetch/stream shape returns each
// publication's trace id in its "trace" field — so one id follows a
// publication from the publishing process through the bus to every
// fetching process.
package share

import (
	"encoding/base64"
	"fmt"

	"orchestra/internal/core"
	"orchestra/internal/value"
)

// wireEdit is one edit on the wire.
type wireEdit struct {
	Op  string `json:"op"` // "+" or "-"
	Rel string `json:"rel"`
	Key string `json:"key"` // base64 canonical tuple
}

// wirePublication is one published edit log on the wire. Trace is the
// publication's lineage trace id; omitted for publications that predate
// tracing.
type wirePublication struct {
	Peer  string     `json:"peer"`
	Edits []wireEdit `json:"edits"`
	Trace string     `json:"trace,omitempty"`
}

// wireDelta is one sharded publication on the wire (/fetch, /watch):
// a wirePublication plus its 1-based position within the owning peer's
// shard, so receivers can check contiguity without replaying the log.
type wireDelta struct {
	Peer  string     `json:"peer"`
	Pos   int        `json:"pos"`
	Edits []wireEdit `json:"edits"`
	Trace string     `json:"trace,omitempty"`
}

// fetchResponse is the /fetch payload. Cursor is the durable form of
// the server's horizon after the returned deltas (core.ParseCursor).
type fetchResponse struct {
	Cursor string      `json:"cursor"`
	Deltas []wireDelta `json:"deltas"`
}

// horizonResponse is the /horizon payload.
type horizonResponse struct {
	Cursor string `json:"cursor"`
}

func toWire(peer string, log core.EditLog) wirePublication {
	wp := wirePublication{Peer: peer}
	for _, e := range log {
		op := "-"
		if e.Insert {
			op = "+"
		}
		wp.Edits = append(wp.Edits, wireEdit{
			Op:  op,
			Rel: e.Rel,
			Key: base64.StdEncoding.EncodeToString(e.Tuple.EncodeKey(nil)),
		})
	}
	return wp
}

func toWireDelta(d core.Delta) wireDelta {
	wp := toWire(d.Pub.Peer, d.Pub.Log)
	return wireDelta{Peer: d.Pub.Peer, Pos: d.Pos, Edits: wp.Edits, Trace: d.Pub.TraceID}
}

func fromWire(wp wirePublication) (string, core.EditLog, error) {
	if wp.Peer == "" {
		return "", nil, fmt.Errorf("share: publication without peer")
	}
	var log core.EditLog
	for i, we := range wp.Edits {
		if we.Op != "+" && we.Op != "-" {
			return "", nil, fmt.Errorf("share: edit %d: bad op %q", i, we.Op)
		}
		raw, err := base64.StdEncoding.DecodeString(we.Key)
		if err != nil {
			return "", nil, fmt.Errorf("share: edit %d: %w", i, err)
		}
		tup, err := value.DecodeTuple(string(raw))
		if err != nil {
			return "", nil, fmt.Errorf("share: edit %d: %w", i, err)
		}
		log = append(log, core.Edit{Insert: we.Op == "+", Rel: we.Rel, Tuple: tup})
	}
	return wp.Peer, log, nil
}

func fromWireDelta(wd wireDelta) (core.Delta, error) {
	if wd.Pos <= 0 {
		return core.Delta{}, fmt.Errorf("share: delta of peer %q without a shard position (pos %d)", wd.Peer, wd.Pos)
	}
	peer, log, err := fromWire(wirePublication{Peer: wd.Peer, Edits: wd.Edits, Trace: wd.Trace})
	if err != nil {
		return core.Delta{}, err
	}
	return core.Delta{
		Shard: peer,
		Pos:   wd.Pos,
		Pub:   core.Publication{Peer: peer, Log: log, TraceID: wd.Trace},
	}, nil
}
