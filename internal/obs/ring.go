package obs

import "sync"

// ring is a bounded buffer of the most recent items, the one
// implementation behind Tracer, PubTracer and SlowQueryRing. Its
// methods lock and (for last) allocate: they run once per recorded
// event and once per debug request, never inside a hot loop.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int    // slot the next add overwrites
	seen uint64 // items ever added
}

// newRing returns a ring retaining the last capacity items (minimum 1).
func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, max(capacity, 1))}
}

// add records item, evicting the oldest once the ring is full. stamp,
// when non-nil, runs under the ring's lock with the item's 1-based
// ordinal before any reader can see the item.
func (r *ring[T]) add(item T, stamp func(ordinal uint64)) {
	r.mu.Lock()
	r.seen++
	if stamp != nil {
		stamp(r.seen)
	}
	r.buf[r.next] = item
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
}

// last returns up to n of the most recent items, newest first.
func (r *ring[T]) last(n int) []T {
	if n < 1 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if held := min(r.seen, uint64(len(r.buf))); uint64(n) > held {
		n = int(held)
	}
	out := make([]T, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// count reports how many items have ever been added.
func (r *ring[T]) count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}
