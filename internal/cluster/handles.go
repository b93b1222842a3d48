package cluster

import (
	"harmonia/internal/protocol"
	"harmonia/internal/protocol/craq"
	"harmonia/internal/store"
	"harmonia/internal/wire"
)

// The handle adapters give the cluster a uniform view of the replicas'
// state: the preload hook used to warm the key space without driving
// millions of protocol writes, and the slot-scoped extract/install/drop
// operations and client tables a handoff transfers.

// baseHandle adapts the store-backed protocols (PB, chain replication,
// VR, NOPaxos), which all keep their objects and client table in
// protocol.Base.
type baseHandle struct{ b *protocol.Base }

func (h baseHandle) Preload(id wire.ObjectID, value []byte, seq wire.Seq) {
	h.b.Store.Seed(id, value, seq)
}
func (h baseHandle) ExtractSlot(slot int) map[wire.ObjectID]store.Object {
	return h.b.Store.ExtractSlot(slot)
}
func (h baseHandle) InstallSlot(objs map[wire.ObjectID]store.Object)    { h.b.Store.InstallSlot(objs) }
func (h baseHandle) DropSlot(slot int) int                              { return h.b.Store.DropSlot(slot) }
func (h baseHandle) ExportClients() map[uint32]protocol.ClientRecord    { return h.b.CT.Export() }
func (h baseHandle) MergeClients(recs map[uint32]protocol.ClientRecord) { h.b.CT.Merge(recs) }
func (h baseHandle) SlotCounts() []int                                  { return h.b.Store.SlotCounts() }
func (h baseHandle) GetObject(id wire.ObjectID) (store.Object, bool)    { return h.b.Store.Get(id) }

// craqHandle adapts CRAQ, which keeps explicit clean/dirty version
// chains instead of a store.
type craqHandle struct{ r *craq.Replica }

func (h craqHandle) Preload(id wire.ObjectID, value []byte, seq wire.Seq) {
	h.r.PreloadClean(id, value, 0)
}
func (h craqHandle) ExtractSlot(slot int) map[wire.ObjectID]store.Object {
	out := make(map[wire.ObjectID]store.Object)
	for id, v := range h.r.ExtractSlotClean(slot) {
		out[id] = store.Object{Value: v.Value, Seq: wire.Seq{N: v.N}}
	}
	return out
}
func (h craqHandle) InstallSlot(objs map[wire.ObjectID]store.Object) {
	// Version 0 keeps the destination's in-order apply guard (lastVer)
	// untouched, mirroring the epoch-0 neutering of the store-backed
	// protocols.
	for id, o := range objs {
		h.r.PreloadClean(id, o.Value, 0)
	}
}
func (h craqHandle) DropSlot(slot int) int { return h.r.DropSlot(slot) }
func (h craqHandle) ExportClients() map[uint32]protocol.ClientRecord {
	return h.r.ClientTable().Export()
}
func (h craqHandle) MergeClients(recs map[uint32]protocol.ClientRecord) {
	h.r.ClientTable().Merge(recs)
}
func (h craqHandle) SlotCounts() []int { return h.r.SlotCounts() }
func (h craqHandle) GetObject(id wire.ObjectID) (store.Object, bool) {
	// The newest COMMITTED version, through the same slot-scoped view
	// a handoff's extract uses.
	o, ok := h.r.ExtractSlotClean(wire.SlotOf(id))[id]
	if !ok {
		return store.Object{}, false
	}
	return store.Object{Value: o.Value, Seq: wire.Seq{N: o.N}}, true
}
