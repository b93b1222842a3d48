package store

import (
	"testing"

	"harmonia/internal/wire"
)

// benchObjects is about one Fig P group's share of the key space
// (100k keys over 8 groups).
const benchObjects = 12500

// newBenchStore preloads benchObjects scattered IDs the way the
// cluster warms a replica, and returns the store and its IDs.
func newBenchStore() (*Store, []wire.ObjectID) {
	s := New()
	ids := make([]wire.ObjectID, benchObjects)
	v := []byte("value")
	for i := range ids {
		ids[i] = wire.ObjectID(uint32(i) * 2654435761)
		s.Seed(ids[i], v, wire.ZeroSeq)
	}
	return s, ids
}

// TestStoreSteadyPathZeroAllocs asserts that reads and overwrites of
// existing objects — the replica's per-packet work — never touch the
// heap.
func TestStoreSteadyPathZeroAllocs(t *testing.T) {
	s, ids := newBenchStore()
	v := []byte("v2")
	n, i := uint64(0), 0
	if a := testing.AllocsPerRun(1000, func() {
		i = (i + 1) % len(ids)
		if _, ok := s.Get(ids[i]); !ok {
			t.Fatal("preloaded object missing")
		}
	}); a != 0 {
		t.Fatalf("Get: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		i = (i + 1) % len(ids)
		n++
		if err := s.Apply(ids[i], v, wire.Seq{Epoch: 1, N: n}, false); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Apply: %.1f allocs/op, want 0", a)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s, ids := newBenchStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(ids[i%len(ids)])
	}
}

func BenchmarkStoreApply(b *testing.B) {
	s, ids := newBenchStore()
	v := []byte("v2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Apply(ids[i%len(ids)], v, wire.Seq{Epoch: 1, N: uint64(i + 1)}, false); err != nil {
			b.Fatal(err)
		}
	}
}
