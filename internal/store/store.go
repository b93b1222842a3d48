// Package store provides the in-memory storage backend the replicas
// run — the stand-in for Redis in the paper's prototype.
//
// Beyond a plain map, the store keeps the switch-assigned sequence
// number of the last write applied to each object, which is exactly the
// state the Harmonia shim layer needs for the §7 fast-path read checks
// (R.obj.seq in the paper's proof notation), and it enforces the §5.2
// write-order requirement: writes must be applied in strictly
// increasing sequence-number order.
package store

import (
	"errors"
	"fmt"
	"math/bits"

	"harmonia/internal/wire"
)

// Object is a stored value plus the sequence number of the write that
// produced it.
type Object struct {
	Value []byte
	Seq   wire.Seq
}

// ErrOutOfOrder reports an attempt to apply a write whose sequence
// number does not exceed the last applied one.
var ErrOutOfOrder = errors.New("store: write out of sequence order")

// Store is the replica's key-value table: one open-addressed hash
// table with linear probing over a power-of-two array of inline
// entries, so a read or write touches one contiguous probe run and
// never the Go map runtime. Deletion backward-shifts the displaced
// probe run (as in internal/cluster's pendingtab.go), so lookups never
// see tombstones and the table stays dense however many objects churn
// through it. Service time is charged at the node level (simnet), so
// the layout here is a simulator-speed concern only.
type Store struct {
	tab   []entry
	n     int   // live objects
	shift uint8 // 64 − log2(len(tab)), for home

	// lastApplied is the sequence number of the most recent write
	// applied to any object (R.seq in the paper's proof), used by
	// read-behind protocols' visibility check.
	lastApplied wire.Seq

	applied uint64 // total applied writes

	// slotCount tracks live objects per routing slot, maintained
	// incrementally on every insert/delete so the rebalancer's
	// move-cost model can consult real occupancy without scanning the
	// store (a per-tick scan is exactly the heavy probe the switch-side
	// counters exist to avoid).
	slotCount [wire.NumSlots]int32
}

// entry is one table cell; used distinguishes an empty cell, since
// every uint32 is a legal ObjectID.
type entry struct {
	id   wire.ObjectID
	used bool
	obj  Object
}

// New creates an empty store.
func New() *Store { return &Store{} }

// home returns id's home cell: Fibonacci hashing keeps the high
// product bits, so sequential IDs spread across the table.
func (s *Store) home(id wire.ObjectID) uint64 {
	return (uint64(id) * 0x9E3779B97F4A7C15) >> s.shift
}

// find returns the cell holding id, or -1.
func (s *Store) find(id wire.ObjectID) int {
	if s.n == 0 {
		return -1
	}
	mask := uint64(len(s.tab) - 1)
	for i := s.home(id); ; i = (i + 1) & mask {
		e := &s.tab[i]
		if !e.used {
			return -1
		}
		if e.id == id {
			return int(i)
		}
	}
}

// put inserts or replaces id's object, growing at 3/4 load.
func (s *Store) put(id wire.ObjectID, o Object) {
	if 4*(s.n+1) > 3*len(s.tab) {
		s.grow()
	}
	mask := uint64(len(s.tab) - 1)
	for i := s.home(id); ; i = (i + 1) & mask {
		e := &s.tab[i]
		if !e.used {
			*e = entry{id: id, used: true, obj: o}
			s.n++
			s.slotCount[wire.SlotOf(id)]++
			return
		}
		if e.id == id {
			e.obj = o
			return
		}
	}
}

func (s *Store) grow() {
	old := s.tab
	s.tab = make([]entry, max(16, 2*len(old)))
	s.shift = uint8(64 - bits.TrailingZeros(uint(len(s.tab))))
	mask := uint64(len(s.tab) - 1)
	for k := range old {
		if !old[k].used {
			continue
		}
		i := s.home(old[k].id)
		for s.tab[i].used {
			i = (i + 1) & mask
		}
		s.tab[i] = old[k]
	}
}

// removeAt deletes the entry in cell i. Backward shift: walk the rest
// of the probe run and pull every entry whose home cell lies at or
// before the hole into it, keeping all remaining entries reachable
// from their home cells. A later entry may land in cell i, so a scan
// that deletes as it goes must re-examine i.
func (s *Store) removeAt(i uint64) {
	s.slotCount[wire.SlotOf(s.tab[i].id)]--
	s.n--
	mask := uint64(len(s.tab) - 1)
	j := i
	for {
		j = (j + 1) & mask
		if !s.tab[j].used {
			break
		}
		if (j-s.home(s.tab[j].id))&mask >= (j-i)&mask {
			s.tab[i] = s.tab[j]
			i = j
		}
	}
	s.tab[i] = entry{}
}

// Apply installs a write. It returns ErrOutOfOrder if seq does not
// strictly exceed the last applied sequence number — the §5.2
// requirement that lets the switch keep only one entry per contended
// object. delete removes the object instead of updating it.
func (s *Store) Apply(id wire.ObjectID, value []byte, seq wire.Seq, del bool) error {
	if !s.lastApplied.Less(seq) {
		return ErrOutOfOrder
	}
	s.lastApplied = seq
	s.applied++
	if del {
		if i := s.find(id); i >= 0 {
			s.removeAt(uint64(i))
		}
		return nil
	}
	s.put(id, Object{Value: value, Seq: seq})
	return nil
}

// Seed installs an object without the order check, for warming a
// replica before it serves traffic (e.g. preloading a key space).
// lastApplied only ever moves forward.
func (s *Store) Seed(id wire.ObjectID, value []byte, seq wire.Seq) {
	s.put(id, Object{Value: value, Seq: seq})
	if s.lastApplied.Less(seq) {
		s.lastApplied = seq
	}
}

// Get returns the object and whether it exists.
func (s *Store) Get(id wire.ObjectID) (Object, bool) {
	if i := s.find(id); i >= 0 {
		return s.tab[i].obj, true
	}
	return Object{}, false
}

// ObjectSeq returns the sequence number of the last write applied to
// id (zero if the object has never been written or was deleted — a
// deleted object's tombstone semantics are captured by lastApplied
// ordering, since deletes also advance it).
func (s *Store) ObjectSeq(id wire.ObjectID) wire.Seq {
	if o, ok := s.Get(id); ok {
		return o.Seq
	}
	return wire.ZeroSeq
}

// LastApplied returns the sequence number of the most recent applied
// write (R.seq).
func (s *Store) LastApplied() wire.Seq { return s.lastApplied }

// AppliedCount returns the number of writes applied over the store's
// lifetime.
func (s *Store) AppliedCount() uint64 { return s.applied }

// Len returns the number of live objects.
func (s *Store) Len() int { return s.n }

// Snapshot copies the full state, used for state transfer when a
// replica falls behind or a new replica joins.
type Snapshot struct {
	Objects     map[wire.ObjectID]Object
	LastApplied wire.Seq
}

// Snapshot captures the current state.
func (s *Store) Snapshot() Snapshot {
	snap := Snapshot{Objects: make(map[wire.ObjectID]Object, s.n), LastApplied: s.lastApplied}
	for i := range s.tab {
		if e := &s.tab[i]; e.used {
			snap.Objects[e.id] = e.obj
		}
	}
	return snap
}

// Restore replaces the store contents with snap.
func (s *Store) Restore(snap Snapshot) {
	s.tab, s.n, s.slotCount = nil, 0, [wire.NumSlots]int32{}
	for k, v := range snap.Objects {
		s.put(k, v)
	}
	s.lastApplied = snap.LastApplied
}

// ExtractSlot copies every live object whose ID hashes to the given
// routing slot — the unit of state a group handoff transfers.
func (s *Store) ExtractSlot(slot int) map[wire.ObjectID]Object {
	out := make(map[wire.ObjectID]Object, s.slotCount[slot])
	for i := range s.tab {
		if e := &s.tab[i]; e.used && wire.SlotOf(e.id) == slot {
			out[e.id] = e.obj
		}
	}
	return out
}

// InstallSlot installs migrated objects with Seed semantics: no
// write-order check, and lastApplied only ever moves forward. Callers
// migrating between groups must neuter the incoming sequence numbers
// (epoch 0) first — each group's scheduler counts in its own sequence
// space, and importing a foreign high-water mark into lastApplied
// would make this store reject its own group's subsequent writes as
// out of order.
func (s *Store) InstallSlot(objs map[wire.ObjectID]Object) {
	for id, o := range objs {
		s.Seed(id, o.Value, o.Seq)
	}
}

// DropSlot removes every object in the routing slot, returning the
// count. The handoff source calls it after the route flipped: the
// slot's reads can no longer reach this group, and keeping the copies
// would only shadow the now-authoritative destination.
func (s *Store) DropSlot(slot int) int {
	n := int(s.slotCount[slot])
	for i := 0; i < len(s.tab) && s.slotCount[slot] > 0; i++ {
		// removeAt may shift a later entry into cell i: re-examine it.
		for s.tab[i].used && wire.SlotOf(s.tab[i].id) == slot {
			s.removeAt(uint64(i))
		}
	}
	return n
}

// SlotLen returns the number of live objects in one routing slot, read
// from the incrementally maintained counter (O(1), no scan).
func (s *Store) SlotLen(slot int) int { return int(s.slotCount[slot]) }

// SlotCounts returns a copy of the per-slot object counters — the
// occupancy input to the rebalancer's ObjectCost veto.
func (s *Store) SlotCounts() []int {
	out := make([]int, wire.NumSlots)
	for slot, n := range s.slotCount {
		out[slot] = int(n)
	}
	return out
}

// String summarizes the store for diagnostics.
func (s *Store) String() string {
	return fmt.Sprintf("store{objects=%d lastApplied=%s}", s.Len(), s.lastApplied)
}
