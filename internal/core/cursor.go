package core

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// Cursor is a typed, shard-aware position on a publication bus. The bus
// remains a totally ordered sequence of publications; Total is the
// number of publications already consumed from that order. Because
// every fetch and subscription consumes a contiguous prefix of the
// global order, Total alone determines what is pending (the prefix
// invariant), while the per-shard breakdown — how many of those
// publications each owning peer contributed — serves push-side gap
// detection, per-shard durable segments, and the shard lag gauges.
//
// The zero Cursor is the start of the bus. Every Cursor knows its
// per-shard breakdown: an absent shard entry means none of that shard's
// publications have been consumed.
//
// Cursor is a value type: Advance returns a new Cursor, and a Cursor
// may be copied freely.
type Cursor struct {
	total  int
	shards map[string]int
}

// cursorVersion prefixes the durable string form so the format can
// evolve; ParseCursor rejects unknown versions.
const cursorVersion = "v1"

// Total reports how many publications of the global order this cursor
// has consumed. By the prefix invariant this is also the fetch offset.
func (c Cursor) Total() int { return c.total }

// Shard reports how many publications of the named shard (owning peer)
// this cursor has consumed.
func (c Cursor) Shard(name string) int { return c.shards[name] }

// Shards returns the shard names with a nonzero recorded position, in
// sorted order.
func (c Cursor) Shards() []string {
	if len(c.shards) == 0 {
		return nil
	}
	names := make([]string, 0, len(c.shards))
	for name := range c.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// IsZero reports whether this is the start-of-bus position.
func (c Cursor) IsZero() bool { return c.total == 0 }

// Equal reports positional equality: same total, same shard breakdown.
func (c Cursor) Equal(o Cursor) bool {
	if c.total != o.total || len(c.shards) != len(o.shards) {
		return false
	}
	for name, n := range c.shards {
		if o.shards[name] != n {
			return false
		}
	}
	return true
}

// Advance returns the cursor after consuming one more delta: the total
// grows by one and the delta's shard entry moves to its position. The
// receiver is not modified.
func (c Cursor) Advance(d Delta) Cursor {
	next := Cursor{total: c.total + 1}
	next.shards = make(map[string]int, len(c.shards)+1)
	for name, n := range c.shards {
		next.shards[name] = n
	}
	next.shards[d.Shard] = d.Pos
	return next
}

// String renders the durable form, e.g. "v1:7;PGUS=4,PuBio=3" (the
// shard list is empty at the start of the bus but the semicolon is
// always present). Shard names are query-escaped so arbitrary peer
// names round-trip.
func (c Cursor) String() string {
	var b strings.Builder
	b.WriteString(cursorVersion)
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(c.total))
	b.WriteByte(';')
	for i, name := range c.Shards() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(url.QueryEscape(name))
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(c.shards[name]))
	}
	return b.String()
}

// ParseCursor parses the durable form produced by String. The empty
// string and "v1:0" parse to the zero cursor, so absent manifest fields
// and unset flags need no special casing; any other total must come
// with the shard breakdown that adds up to it.
func ParseCursor(s string) (Cursor, error) {
	if s == "" {
		return Cursor{}, nil
	}
	rest, ok := strings.CutPrefix(s, cursorVersion+":")
	if !ok {
		return Cursor{}, fmt.Errorf("core: cursor %q: unknown version", s)
	}
	totalPart, shardPart, _ := strings.Cut(rest, ";")
	total, err := strconv.Atoi(totalPart)
	if err != nil || total < 0 {
		return Cursor{}, fmt.Errorf("core: cursor %q: bad total", s)
	}
	c := Cursor{total: total}
	sum := 0
	if shardPart != "" {
		c.shards = make(map[string]int)
		for _, entry := range strings.Split(shardPart, ",") {
			namePart, posPart, ok := strings.Cut(entry, "=")
			if !ok {
				return Cursor{}, fmt.Errorf("core: cursor %q: bad shard entry %q", s, entry)
			}
			name, err := url.QueryUnescape(namePart)
			if err != nil {
				return Cursor{}, fmt.Errorf("core: cursor %q: bad shard name %q", s, namePart)
			}
			pos, err := strconv.Atoi(posPart)
			if err != nil || pos <= 0 {
				return Cursor{}, fmt.Errorf("core: cursor %q: bad shard position %q", s, posPart)
			}
			if _, dup := c.shards[name]; dup {
				return Cursor{}, fmt.Errorf("core: cursor %q: duplicate shard %q", s, name)
			}
			c.shards[name] = pos
			sum += pos
		}
	}
	// A position is its shard breakdown: a bare total ("v1:7") or a
	// partial one does not name a place on the bus.
	if sum != total {
		return Cursor{}, fmt.Errorf("core: cursor %q: shard positions sum to %d, total is %d", s, sum, total)
	}
	return c, nil
}

// Delta is one publication as delivered by a fetch or subscription:
// the publication plus its position on its owning shard. Shard is the
// owning peer; Pos is the 1-based position of this publication within
// that shard's sub-sequence.
type Delta struct {
	Shard string
	Pos   int
	Pub   Publication
}

// CancelFunc tears down a subscription: the delta channel is closed
// and the subscriber's resources released. Safe to call more than
// once, and safe to call after the channel has already closed.
type CancelFunc func()

// cursorAtMost reports whether position a is no further along the bus
// than b, comparing totals (the prefix invariant makes totals
// comparable across any two cursors on the same bus).
func cursorAtMost(a, b Cursor) bool { return a.total <= b.total }
