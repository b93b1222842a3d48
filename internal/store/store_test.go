package store

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"harmonia/internal/wire"
)

func seq(n uint64) wire.Seq { return wire.Seq{Epoch: 1, N: n} }

func TestApplyGet(t *testing.T) {
	s := New()
	if err := s.Apply(1, []byte("v1"), seq(1), false); err != nil {
		t.Fatal(err)
	}
	o, ok := s.Get(1)
	if !ok || !bytes.Equal(o.Value, []byte("v1")) || o.Seq != seq(1) {
		t.Fatalf("Get = %+v, %v", o, ok)
	}
	if _, ok := s.Get(2); ok {
		t.Fatal("phantom object")
	}
}

func TestApplyOutOfOrderRejected(t *testing.T) {
	s := New()
	if err := s.Apply(1, []byte("a"), seq(5), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(2, []byte("b"), seq(5), false); err != ErrOutOfOrder {
		t.Fatalf("equal seq accepted: %v", err)
	}
	if err := s.Apply(2, []byte("b"), seq(3), false); err != ErrOutOfOrder {
		t.Fatalf("lower seq accepted: %v", err)
	}
	// State must be unchanged by rejected writes.
	if _, ok := s.Get(2); ok {
		t.Fatal("rejected write mutated state")
	}
	if s.LastApplied() != seq(5) {
		t.Fatal("rejected write advanced lastApplied")
	}
}

func TestApplyEpochOrdering(t *testing.T) {
	s := New()
	_ = s.Apply(1, []byte("old"), wire.Seq{Epoch: 1, N: 100}, false)
	// A new-epoch write with a smaller counter is still "later".
	if err := s.Apply(1, []byte("new"), wire.Seq{Epoch: 2, N: 1}, false); err != nil {
		t.Fatalf("new-epoch write rejected: %v", err)
	}
	// An old-epoch straggler must be rejected.
	if err := s.Apply(1, []byte("stale"), wire.Seq{Epoch: 1, N: 101}, false); err != ErrOutOfOrder {
		t.Fatalf("old-epoch write accepted: %v", err)
	}
	o, _ := s.Get(1)
	if string(o.Value) != "new" {
		t.Fatalf("value = %q", o.Value)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	_ = s.Apply(1, []byte("x"), seq(1), false)
	if err := s.Apply(1, nil, seq(2), true); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("object survived delete")
	}
	if s.LastApplied() != seq(2) {
		t.Fatal("delete did not advance lastApplied")
	}
	if s.ObjectSeq(1) != wire.ZeroSeq {
		t.Fatal("deleted object has nonzero seq")
	}
}

func TestObjectSeqAndLastApplied(t *testing.T) {
	s := New()
	_ = s.Apply(10, []byte("a"), seq(1), false)
	_ = s.Apply(20, []byte("b"), seq(2), false)
	if s.ObjectSeq(10) != seq(1) || s.ObjectSeq(20) != seq(2) {
		t.Fatal("per-object seq wrong")
	}
	if s.LastApplied() != seq(2) {
		t.Fatal("lastApplied wrong")
	}
}

func TestLenAndAppliedCount(t *testing.T) {
	s := New()
	for i := uint64(1); i <= 10; i++ {
		_ = s.Apply(wire.ObjectID(i%3), []byte("v"), seq(i), false)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.AppliedCount() != 10 {
		t.Fatalf("AppliedCount = %d", s.AppliedCount())
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	for i := uint64(1); i <= 50; i++ {
		_ = s.Apply(wire.ObjectID(i), []byte{byte(i)}, seq(i), false)
	}
	snap := s.Snapshot()

	// Restore replaces whatever the target held.
	fresh := New()
	fresh.Seed(wire.ObjectID(1000), []byte("gone"), wire.ZeroSeq)
	fresh.Restore(snap)
	if fresh.Len() != 50 || fresh.LastApplied() != seq(50) {
		t.Fatalf("restore: len=%d last=%v", fresh.Len(), fresh.LastApplied())
	}
	for i := uint64(1); i <= 50; i++ {
		o, ok := fresh.Get(wire.ObjectID(i))
		if !ok || o.Value[0] != byte(i) || o.Seq != seq(i) {
			t.Fatalf("object %d wrong after restore: %+v %v", i, o, ok)
		}
	}
	if _, ok := fresh.Get(wire.ObjectID(1000)); ok {
		t.Fatal("restore kept an object the snapshot does not hold")
	}
	// Snapshot must be a copy: mutating the restored store must not
	// affect the source.
	_ = fresh.Apply(1, []byte("zz"), seq(99), false)
	if o, _ := s.Get(1); o.Value[0] != 1 {
		t.Fatal("snapshot aliases source store")
	}
}

// Property: the store agrees with a model map for any in-order write
// sequence with random keys/deletes.
func TestStoreMatchesModel(t *testing.T) {
	f := func(sd int64) bool {
		rng := rand.New(rand.NewSource(sd))
		s := New()
		model := map[wire.ObjectID][]byte{}
		for i := uint64(1); i <= 500; i++ {
			id := wire.ObjectID(rng.Intn(40))
			if rng.Intn(5) == 0 {
				if s.Apply(id, nil, seq(i), true) != nil {
					return false
				}
				delete(model, id)
			} else {
				v := []byte{byte(rng.Intn(256))}
				if s.Apply(id, v, seq(i), false) != nil {
					return false
				}
				model[id] = v
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			o, ok := s.Get(k)
			if !ok || !bytes.Equal(o.Value, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: lastApplied is always the max applied seq, and per-object
// seqs never exceed it.
func TestSeqInvariants(t *testing.T) {
	f := func(sd int64) bool {
		rng := rand.New(rand.NewSource(sd))
		s := New()
		var max wire.Seq
		for i := 0; i < 300; i++ {
			sq := wire.Seq{Epoch: uint32(rng.Intn(3)), N: uint64(rng.Intn(1000))}
			id := wire.ObjectID(rng.Intn(20))
			err := s.Apply(id, []byte("v"), sq, false)
			if max.Less(sq) {
				if err != nil {
					return false
				}
				max = sq
			} else if err != ErrOutOfOrder {
				return false
			}
			if s.LastApplied() != max {
				return false
			}
			if s.LastApplied().Less(s.ObjectSeq(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractInstallDropSlot(t *testing.T) {
	src := New()
	var inSlot, elsewhere []wire.ObjectID
	for id := wire.ObjectID(1); len(inSlot) < 3 || len(elsewhere) < 2; id++ {
		if wire.SlotOf(id) == 5 {
			inSlot = append(inSlot, id)
		} else {
			elsewhere = append(elsewhere, id)
		}
	}
	seq := uint64(0)
	for _, id := range append(append([]wire.ObjectID{}, inSlot...), elsewhere...) {
		seq++
		if err := src.Apply(id, []byte{byte(seq)}, wire.Seq{Epoch: 1, N: seq}, false); err != nil {
			t.Fatal(err)
		}
	}

	got := src.ExtractSlot(5)
	if len(got) != len(inSlot) {
		t.Fatalf("ExtractSlot(5) returned %d objects, want %d", len(got), len(inSlot))
	}
	for _, id := range inSlot {
		if _, ok := got[id]; !ok {
			t.Fatalf("object %d missing from extract", id)
		}
	}

	// Install into a destination already ahead in its own sequence
	// space, with neutered (epoch-0) seqs: the destination must keep
	// accepting its own writes afterwards.
	dst := New()
	if err := dst.Apply(elsewhere[0], []byte("d"), wire.Seq{Epoch: 1, N: 100}, false); err != nil {
		t.Fatal(err)
	}
	install := make(map[wire.ObjectID]Object, len(got))
	for id, o := range got {
		install[id] = Object{Value: o.Value, Seq: wire.Seq{Epoch: 0, N: o.Seq.N}}
	}
	dst.InstallSlot(install)
	for _, id := range inSlot {
		if o, ok := dst.Get(id); !ok || o.Seq.Epoch != 0 {
			t.Fatalf("installed object %d = %+v, %v", id, o, ok)
		}
	}
	if got := dst.LastApplied(); got != (wire.Seq{Epoch: 1, N: 100}) {
		t.Fatalf("install moved lastApplied to %v", got)
	}
	if err := dst.Apply(elsewhere[1], []byte("e"), wire.Seq{Epoch: 1, N: 101}, false); err != nil {
		t.Fatalf("destination rejects its own writes after install: %v", err)
	}

	// Drop removes exactly the slot's objects from the source.
	if n := src.DropSlot(5); n != len(inSlot) {
		t.Fatalf("DropSlot removed %d, want %d", n, len(inSlot))
	}
	for _, id := range inSlot {
		if _, ok := src.Get(id); ok {
			t.Fatalf("object %d survived DropSlot", id)
		}
	}
	for _, id := range elsewhere {
		if _, ok := src.Get(id); !ok {
			t.Fatalf("DropSlot removed out-of-slot object %d", id)
		}
	}
}

// TestSlotCountsTrackOnline verifies the per-slot object counters stay
// exact through every mutation path — write, overwrite, delete, seed,
// install, drop, restore — so the rebalancer's ObjectCost veto can
// sample occupancy without a scan.
func TestSlotCountsTrackOnline(t *testing.T) {
	s := New()
	var knuth uint32 = 2654435761
	verify := func(when string) {
		t.Helper()
		want := make(map[int]int)
		for id := range s.Snapshot().Objects {
			want[wire.SlotOf(id)]++
		}
		got := s.SlotCounts()
		for slot := 0; slot < wire.NumSlots; slot++ {
			if got[slot] != want[slot] || len(s.ExtractSlot(slot)) != want[slot] {
				t.Fatalf("%s: slot %d count %d, scan says %d", when, slot, got[slot], want[slot])
			}
		}
	}

	n := uint64(0)
	apply := func(id wire.ObjectID, del bool) {
		n++
		if err := s.Apply(id, []byte("v"), wire.Seq{Epoch: 1, N: n}, del); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	for i := 0; i < 64; i++ {
		apply(wire.ObjectID(uint32(i)*2654435761), false)
	}
	verify("after writes")
	for i := 0; i < 16; i++ {
		apply(wire.ObjectID(uint32(i)*2654435761), false) // overwrite: no count change
	}
	verify("after overwrites")
	for i := 0; i < 8; i++ {
		apply(wire.ObjectID(uint32(i)*2654435761), true) // delete
	}
	apply(wire.ObjectID(999999999), true) // delete of absent key: no-op
	verify("after deletes")

	s.Seed(wire.ObjectID(42), []byte("s"), wire.Seq{})
	s.Seed(wire.ObjectID(42), []byte("s2"), wire.Seq{}) // reseed: no change
	verify("after seeds")

	slot := wire.SlotOf(wire.ObjectID(8 * knuth))
	if got := s.SlotLen(slot); got != len(s.ExtractSlot(slot)) {
		t.Fatalf("SlotLen(%d) = %d, extract says %d", slot, got, len(s.ExtractSlot(slot)))
	}
	s.DropSlot(slot)
	verify("after drop")

	snap := s.Snapshot()
	s2 := New()
	s2.Seed(wire.ObjectID(7), []byte("x"), wire.Seq{})
	s2.Restore(snap)
	got := s2.SlotCounts()
	want := s.SlotCounts()
	for slot := range got {
		if got[slot] != want[slot] {
			t.Fatalf("restore: slot %d count %d, want %d", slot, got[slot], want[slot])
		}
	}
}

// TestTableMatchesMapReference drives the open-addressed table with
// random Seed/Apply/delete/DropSlot/ExtractSlot/Restore steps and
// checks it against a plain map after every step: Len, Get for every
// live and some dead IDs, and SlotCounts. IDs are drawn from a small
// pool packed into a few routing slots, so DropSlot removes runs of
// neighbours; the test also asserts it saw the table grow, a probe run
// wrap past the last cell, and entries displaced from their home cells
// (the ones a delete must backward-shift).
func TestTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pool []wire.ObjectID
	for id := wire.ObjectID(rng.Uint32()); len(pool) < 400; id++ {
		if slot := wire.SlotOf(id); slot < 4 || rng.Intn(64) == 0 {
			pool = append(pool, id)
		}
		id += wire.ObjectID(rng.Intn(1 << 12))
	}
	s := New()
	model := map[wire.ObjectID]Object{}
	var last wire.Seq
	n := uint64(0)
	sizes := map[int]bool{}
	var sawWrap, sawShift bool

	check := func(step int, what string) {
		t.Helper()
		if s.Len() != len(model) {
			t.Fatalf("step %d (%s): Len %d, reference %d", step, what, s.Len(), len(model))
		}
		if s.LastApplied() != last {
			t.Fatalf("step %d (%s): lastApplied %v, reference %v", step, what, s.LastApplied(), last)
		}
		want := make([]int, wire.NumSlots)
		for id := range model {
			want[wire.SlotOf(id)]++
		}
		got := s.SlotCounts()
		for slot := range want {
			if got[slot] != want[slot] {
				t.Fatalf("step %d (%s): slot %d count %d, reference %d", step, what, slot, got[slot], want[slot])
			}
		}
		for _, id := range pool {
			o, ok := s.Get(id)
			ref, rok := model[id]
			if ok != rok || !bytes.Equal(o.Value, ref.Value) || o.Seq != ref.Seq {
				t.Fatalf("step %d (%s): Get(%d) = %+v %v, reference %+v %v", step, what, id, o, ok, ref, rok)
			}
		}
		sizes[len(s.tab)] = true
		mask := uint64(len(s.tab) - 1)
		for i := range s.tab {
			if e := &s.tab[i]; e.used {
				h := s.home(e.id)
				sawWrap = sawWrap || h > uint64(i)
				sawShift = sawShift || (uint64(i)-h)&mask > 0
			}
		}
	}

	for step := 0; step < 4000; step++ {
		id := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(100); {
		case op < 50:
			n++
			sq := wire.Seq{Epoch: 1, N: n}
			v := []byte{byte(n)}
			if err := s.Apply(id, v, sq, false); err != nil {
				t.Fatal(err)
			}
			model[id] = Object{Value: v, Seq: sq}
			last = sq
			check(step, "apply")
		case op < 75:
			n++
			sq := wire.Seq{Epoch: 1, N: n}
			if err := s.Apply(id, nil, sq, true); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
			last = sq
			check(step, "delete")
		case op < 85:
			sq := wire.Seq{Epoch: 0, N: uint64(rng.Intn(int(n) + 1))}
			s.Seed(id, []byte("s"), sq)
			model[id] = Object{Value: []byte("s"), Seq: sq}
			if last.Less(sq) {
				last = sq
			}
			check(step, "seed")
		case op < 92:
			slot := wire.SlotOf(id)
			want := 0
			for k := range model {
				if wire.SlotOf(k) == slot {
					want++
				}
			}
			got := s.ExtractSlot(slot)
			if len(got) != want {
				t.Fatalf("step %d: ExtractSlot(%d) has %d, reference %d", step, slot, len(got), want)
			}
			for k, o := range got {
				if ref, ok := model[k]; !ok || o.Seq != ref.Seq {
					t.Fatalf("step %d: ExtractSlot(%d) returned %d = %+v, reference %+v %v", step, slot, k, o, ref, ok)
				}
			}
			if dropped := s.DropSlot(slot); dropped != want {
				t.Fatalf("step %d: DropSlot(%d) = %d, reference %d", step, slot, dropped, want)
			}
			for k := range got {
				delete(model, k)
			}
			check(step, "drop")
		case op < 94:
			snap := Snapshot{Objects: make(map[wire.ObjectID]Object, len(model)), LastApplied: last}
			for k, o := range model {
				snap.Objects[k] = o
			}
			s = New()
			s.Seed(pool[0], []byte("stale"), wire.ZeroSeq)
			s.Restore(snap)
			check(step, "restore")
		default:
			// Refill toward the pool size so the table grows again.
			for _, k := range pool[:rng.Intn(len(pool))] {
				n++
				sq := wire.Seq{Epoch: 1, N: n}
				if err := s.Apply(k, []byte{byte(n)}, sq, false); err != nil {
					t.Fatal(err)
				}
				model[k] = Object{Value: []byte{byte(n)}, Seq: sq}
				last = sq
			}
			check(step, "refill")
		}
	}
	if len(sizes) < 4 || !sawWrap || !sawShift {
		t.Fatalf("coverage: table sizes %v, wrapped run %v, displaced entry %v", sizes, sawWrap, sawShift)
	}
}
