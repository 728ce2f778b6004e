package core

import (
	"context"
	"testing"
	"time"
)

// TestCursorStringParseRoundTrip pins the durable form: every cursor
// shape — zero, with shards, names needing escaping — must survive
// String → ParseCursor unchanged.
func TestCursorStringParseRoundTrip(t *testing.T) {
	cases := []Cursor{
		{},
		{total: 3, shards: map[string]int{"PGUS": 2, "PuBio": 1}},
		{total: 5, shards: map[string]int{"a peer": 2, "p=q&r": 2, "müller": 1}},
	}
	for _, c := range cases {
		s := c.String()
		got, err := ParseCursor(s)
		if err != nil {
			t.Fatalf("ParseCursor(%q): %v", s, err)
		}
		if !got.Equal(c) {
			t.Errorf("round-trip %q: got %v, want %v", s, got, c)
		}
	}
	for _, s := range []string{"", "v1:0", "v1:0;"} {
		if got, err := ParseCursor(s); err != nil || !got.IsZero() {
			t.Errorf("ParseCursor(%q) = %v, %v; want the zero cursor", s, got, err)
		}
	}
	if got, err := ParseCursor("v1:7;A=4,B=3"); err != nil || got.Total() != 7 || got.Shard("A") != 4 || got.Shard("B") != 3 {
		t.Errorf(`ParseCursor("v1:7;A=4,B=3") = %v, %v`, got, err)
	}
}

// TestCursorParseRejects pins the error cases: garbage must not parse
// into a plausible position, and a total without the shard breakdown
// that adds up to it is not a position.
func TestCursorParseRejects(t *testing.T) {
	for _, s := range []string{
		"v0:3",         // unknown version
		"v1:x",         // bad total
		"v1:-1",        // negative total
		"v1:7",         // bare total: the removed scalar form
		"v1:7;",        // empty breakdown for a non-zero total
		"v1:3;PGUS",    // shard entry without =
		"v1:3;PGUS=0",  // non-positive shard position
		"v1:3;%zz=1",   // bad escape in shard name
		"v1:3;P=1,P=2", // duplicate shard
		"v1:3;A=2,B=2", // shard sum exceeds total
		"v1:3;A=1,B=1", // shard sum falls short of total
	} {
		if _, err := ParseCursor(s); err == nil {
			t.Errorf("ParseCursor(%q) accepted garbage", s)
		}
	}
}

// TestCursorAdvance pins Advance semantics: the total grows by one, the
// delta's shard moves to its position, the receiver is untouched.
func TestCursorAdvance(t *testing.T) {
	c := Cursor{}
	c = c.Advance(Delta{Shard: "A", Pos: 1})
	c = c.Advance(Delta{Shard: "B", Pos: 1})
	d := c.Advance(Delta{Shard: "A", Pos: 2})
	if d.Total() != 3 || d.Shard("A") != 2 || d.Shard("B") != 1 {
		t.Fatalf("advance: got %v", d)
	}
	if c.Total() != 2 || c.Shard("A") != 1 {
		t.Fatalf("Advance mutated its receiver: %v", c)
	}
}

// TestMemoryBusSubscribeDeliversInOrder checks the basic push contract:
// a subscription from the start delivers every publication in global
// order, including ones appended after the subscription opened, and
// folding the deltas into a cursor reproduces the bus horizon.
func TestMemoryBusSubscribeDeliversInOrder(t *testing.T) {
	ctx := context.Background()
	bus := NewMemoryBus()
	spec := paperSpec(t, nil)
	logs := example3Logs()
	if err := PublishTo(ctx, bus, spec, "PGUS", logs["PGUS"]); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := bus.Subscribe(ctx, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for _, peer := range []string{"PBioSQL", "PuBio"} {
		if err := PublishTo(ctx, bus, spec, peer, logs[peer]); err != nil {
			t.Fatal(err)
		}
	}
	var cur Cursor
	for i, wantPeer := range []string{"PGUS", "PBioSQL", "PuBio"} {
		select {
		case d := <-ch:
			if d.Pub.Peer != wantPeer || d.Shard != wantPeer || d.Pos != 1 {
				t.Fatalf("delta %d: got shard=%s pos=%d peer=%s, want %s", i, d.Shard, d.Pos, d.Pub.Peer, wantPeer)
			}
			cur = cur.Advance(d)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delta %d", i)
		}
	}
	horizon, err := bus.Horizon(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Equal(horizon) {
		t.Fatalf("folded cursor %v != horizon %v", cur, horizon)
	}
}

// TestSubscribeSlowConsumerBoundedNoLoss is the slow-subscriber
// property: a consumer that drains far slower than the publisher
// appends must still receive every publication exactly once and in
// order, while the subscription buffers at most its bounded channel —
// the pump pulls from the bus's own storage rather than queueing.
func TestSubscribeSlowConsumerBoundedNoLoss(t *testing.T) {
	ctx := context.Background()
	bus := NewMemoryBus()
	ch, cancel, err := bus.Subscribe(ctx, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if cap(ch) != subscribeBuffer {
		t.Fatalf("subscription channel capacity %d, want the bounded %d", cap(ch), subscribeBuffer)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if total, err := bus.Preload("P", EditLog{Ins("R", MakeTuple(i))}, ""); err != nil || total != i+1 {
			t.Fatalf("Preload %d: total %d, err %v", i, total, err)
		}
	}
	// The publisher is done and far ahead; drain slowly and verify
	// nothing was dropped or reordered while the buffer stayed bounded.
	for i := 0; i < n; i++ {
		if i%100 == 0 {
			time.Sleep(5 * time.Millisecond) // let the pump refill ahead of us
			if l := len(ch); l > subscribeBuffer {
				t.Fatalf("subscription buffered %d deltas, bound is %d", l, subscribeBuffer)
			}
		}
		select {
		case d := <-ch:
			if d.Pos != i+1 {
				t.Fatalf("delta %d arrived with shard position %d", i, d.Pos)
			}
			if want := MakeTuple(i); d.Pub.Log[0].Tuple.String() != want.String() {
				t.Fatalf("delta %d carries %v, want %v", i, d.Pub.Log[0].Tuple, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delta %d of %d", i, n)
		}
	}
	select {
	case d := <-ch:
		t.Fatalf("extra delta after the full run: %+v", d)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestExchangeDeltasGapAndStale pins the push-import contract: stale
// deltas are skipped, contiguous ones apply coalesced, and any gap or
// position-less delta refuses the batch (handled=false) so the caller
// falls back to a pull.
func TestExchangeDeltasGapAndStale(t *testing.T) {
	ctx := context.Background()
	spec := paperSpec(t, nil)
	logs := example3Logs()
	mkDelta := func(peer string, pos int, log EditLog) Delta {
		return Delta{Shard: peer, Pos: pos, Pub: Publication{Peer: peer, Log: log}}
	}

	v, err := NewView(spec, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1 := mkDelta("PGUS", 1, logs["PGUS"])
	d2 := mkDelta("PBioSQL", 1, logs["PBioSQL"])
	next, stats, handled, err := ExchangeDeltas(ctx, v, Cursor{}, []Delta{d1, d2}, DeleteProvenance)
	if err != nil || !handled {
		t.Fatalf("contiguous run: handled=%v err=%v", handled, err)
	}
	if next.Total() != 2 || stats.PushDeltas != 2 {
		t.Fatalf("contiguous run: next=%v pushDeltas=%d", next, stats.PushDeltas)
	}

	// Replaying the same deltas is stale: handled, nothing applied.
	again, stats, handled, err := ExchangeDeltas(ctx, v, next, []Delta{d1, d2}, DeleteProvenance)
	if err != nil || !handled || stats.PushDeltas != 0 || !again.Equal(next) {
		t.Fatalf("stale replay: handled=%v pushDeltas=%d cursor=%v err=%v", handled, stats.PushDeltas, again, err)
	}

	// A gap (position 3 when 2 is expected) refuses the batch.
	gap := mkDelta("PGUS", 3, logs["PGUS"])
	back, _, handled, err := ExchangeDeltas(ctx, v, next, []Delta{gap}, DeleteProvenance)
	if err != nil || handled || !back.Equal(next) {
		t.Fatalf("gap: handled=%v cursor=%v err=%v", handled, back, err)
	}

	// A delta without a valid position (a malformed bus) refuses the
	// batch rather than passing for stale.
	for _, pos := range []int{0, -1} {
		if _, _, handled, err = ExchangeDeltas(ctx, v, next, []Delta{mkDelta("PGUS", pos, logs["PGUS"])}, DeleteProvenance); err != nil || handled {
			t.Fatalf("position %d: handled=%v err=%v", pos, handled, err)
		}
	}
}

// TestPushPullEquivalenceCore is the core half of the bus-equivalence
// property extended to the subscription path: importing a publication
// run via Subscribe + ExchangeDeltas must leave a view observationally
// identical — instances, rejections, provenance — to the pull replay
// (ExchangeInto) of the same bus.
func TestPushPullEquivalenceCore(t *testing.T) {
	ctx := context.Background()
	spec := paperSpec(t, nil)
	bus := NewMemoryBus()
	logs := example3Logs()

	ch, cancel, err := bus.Subscribe(ctx, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	for _, peer := range []string{"PGUS", "PBioSQL", "PuBio"} {
		if err := PublishTo(ctx, bus, spec, peer, logs[peer]); err != nil {
			t.Fatal(err)
		}
	}
	// The curation deletion of Example 3 rides along so the deletion
	// cascade is exercised on both paths too.
	if err := PublishTo(ctx, bus, spec, "PBioSQL", EditLog{Del("B", MakeTuple(3, 2))}); err != nil {
		t.Fatal(err)
	}

	pullView, err := NewView(spec, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	pullCur, _, err := ExchangeInto(ctx, bus, pullView, Cursor{}, DeleteProvenance)
	if err != nil {
		t.Fatal(err)
	}

	pushView, err := NewView(spec, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	pushCur := Cursor{}
	for pushCur.Total() < pullCur.Total() {
		var batch []Delta
		select {
		case d := <-ch:
			batch = append(batch, d)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at push cursor %v", pushCur)
		}
		next, _, handled, err := ExchangeDeltas(ctx, pushView, pushCur, batch, DeleteProvenance)
		if err != nil {
			t.Fatal(err)
		}
		if !handled {
			t.Fatalf("push import refused contiguous delta at %v", pushCur)
		}
		pushCur = next
	}
	if !pushCur.Equal(pullCur) {
		t.Fatalf("push cursor %v != pull cursor %v", pushCur, pullCur)
	}
	viewsEqual(t, pullView, pushView, "push vs pull")
}
