package value

import (
	"math/rand"
	"testing"
)

// Compare must be a total order: antisymmetric, transitive, and
// consistent with equality — the storage layer's deterministic iteration
// and the spec round-trips rely on it.
func TestCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sample := make([]Value, 200)
	for i := range sample {
		sample[i] = randomValue(r)
	}
	for i := 0; i < 3000; i++ {
		a := sample[r.Intn(len(sample))]
		b := sample[r.Intn(len(sample))]
		c := sample[r.Intn(len(sample))]
		ab, ba := Compare(a, b), Compare(b, a)
		if ab != -ba {
			t.Fatalf("antisymmetry: Compare(%v,%v)=%d, Compare(%v,%v)=%d", a, b, ab, b, a, ba)
		}
		if (ab == 0) != (a == b) {
			t.Fatalf("equality consistency: %v vs %v", a, b)
		}
		if ab <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v ≤ %v ≤ %v but %v > %v", a, b, c, a, c)
		}
	}
}

// Tuple.Compare must agree with key-encoding equality.
func TestTupleCompareConsistentWithKeys(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		a, b := randomTuple(r), randomTuple(r)
		if (a.Compare(b) == 0) != (a.Key() == b.Key()) {
			t.Fatalf("compare/key disagreement: %v vs %v", a, b)
		}
	}
}
