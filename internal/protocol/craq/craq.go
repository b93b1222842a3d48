// Package craq implements CRAQ (Terrace & Freedman, USENIX ATC 2009),
// the protocol-level alternative to Harmonia that the paper compares
// against in §9.5.
//
// CRAQ extends chain replication so any node can serve reads: every
// node keeps, per object, the latest clean (committed) version plus any
// newer dirty versions. Writes run in two phases — a down-chain
// propagation that marks the object dirty at each node, then an
// up-chain commit acknowledgment that marks it clean — which is the
// extra write cost Harmonia avoids by moving conflict tracking into the
// switch. A read of a dirty object triggers a version query to the
// tail and returns the committed version.
//
// CRAQ runs without any switch assistance: the cluster harness routes
// reads to a uniformly random replica (client-side load balancing).
package craq

import (
	"harmonia/internal/protocol"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// version is one entry in an object's version list.
type version struct {
	n     uint64 // version number (the write's sequence counter)
	value []byte
	del   bool
	clean bool
}

// object is a per-key version list, oldest first. Invariant: at most
// the first entry is clean; all later entries are dirty.
type object struct {
	versions []version
}

// latest returns the newest version (clean or dirty).
func (o *object) latest() *version {
	if len(o.versions) == 0 {
		return nil
	}
	return &o.versions[len(o.versions)-1]
}

// at returns the version with number n, or nil.
func (o *object) at(n uint64) *version {
	for i := range o.versions {
		if o.versions[i].n == n {
			return &o.versions[i]
		}
	}
	return nil
}

// commitUpTo marks the version with number n clean and discards older
// versions.
func (o *object) commitUpTo(n uint64) {
	idx := -1
	for i := range o.versions {
		if o.versions[i].n == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	o.versions = o.versions[idx:]
	o.versions[0].clean = true
}

// propagate carries a write down the chain (phase 1: mark dirty).
type propagate struct {
	Pkt *wire.Packet
}

// CostClass marks phase 1 as a full write.
func (propagate) CostClass() protocol.CostClass { return protocol.CostWrite }

// commitAck flows up the chain (phase 2: mark clean). CRAQ's extra
// phase does real per-object work at every node — locating the
// version, committing it, garbage-collecting predecessors — so it is
// charged as a write, which is what halves CRAQ's write throughput
// relative to chain replication in Fig. 9(a).
type commitAck struct {
	ObjID wire.ObjectID
	N     uint64
}

// CostClass charges the commit phase like a write.
func (commitAck) CostClass() protocol.CostClass { return protocol.CostWrite }

// versionQuery asks the tail for an object's committed version number.
type versionQuery struct {
	ObjID wire.ObjectID
	From  simnet.NodeID
	Pkt   *wire.Packet // the pending read, echoed back opaquely
}

// CostClass marks the query as control traffic at the tail.
func (versionQuery) CostClass() protocol.CostClass { return protocol.CostControl }

// versionReply answers a versionQuery.
type versionReply struct {
	ObjID wire.ObjectID
	N     uint64
	Found bool
	Pkt   *wire.Packet
}

// CostClass marks the reply as control traffic.
func (versionReply) CostClass() protocol.CostClass { return protocol.CostControl }

// Replica is one CRAQ chain node.
type Replica struct {
	env   protocol.Env
	group protocol.GroupConfig
	ct    *protocol.ClientTable

	objects map[wire.ObjectID]*object
	lastVer uint64 // in-order apply guard (§5.2 carries over)

	// slotCount tracks live object entries per routing slot, maintained
	// at entry creation/removal so the rebalancer's occupancy sampling
	// needs no scan (the map-backed store keeps the same counter).
	slotCount [wire.NumSlots]int32

	next, prev int

	// Stats
	WritesCommitted uint64
	CleanReads      uint64
	DirtyReads      uint64 // reads that needed a tail version query
}

// ClientTable exposes the at-most-once table for state transfer
// (migration handoffs move it with the objects).
func (r *Replica) ClientTable() *protocol.ClientTable { return r.ct }

// New builds a CRAQ node.
func New(env protocol.Env, g protocol.GroupConfig) *Replica {
	r := &Replica{
		env:     env,
		group:   g,
		ct:      protocol.NewClientTable(),
		objects: make(map[wire.ObjectID]*object),
		next:    g.Self + 1,
		prev:    g.Self - 1,
	}
	if r.next >= g.N() {
		r.next = -1
	}
	return r
}

// IsHead and IsTail report chain position.
func (r *Replica) IsHead() bool { return r.group.Self == 0 }

// IsTail reports whether this node is the tail.
func (r *Replica) IsTail() bool { return r.group.Self == r.group.N()-1 }

func (r *Replica) obj(id wire.ObjectID) *object {
	o, ok := r.objects[id]
	if !ok {
		o = &object{}
		r.objects[id] = o
		r.slotCount[wire.SlotOf(id)]++
	}
	return o
}

// Recv implements simnet.Handler.
func (r *Replica) Recv(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *wire.Packet:
		r.recvPacket(m)
	case propagate:
		r.recvPropagate(m.Pkt)
	case commitAck:
		r.recvCommit(m)
	case versionQuery:
		r.recvVersionQuery(m)
	case versionReply:
		r.recvVersionReply(m)
	}
}

func (r *Replica) recvPacket(pkt *wire.Packet) {
	switch pkt.Op {
	case wire.OpWrite:
		if r.IsHead() {
			r.headWrite(pkt)
			return
		}
		pkt.Release() // writes to a non-head are a routing error
	case wire.OpRead:
		r.readAnywhere(pkt)
	}
}

// headWrite starts phase 1.
func (r *Replica) headWrite(pkt *wire.Packet) {
	execute, _ := r.ct.Admit(pkt.ClientID, pkt.ReqID)
	if !execute {
		// Ask the tail to re-reply from its cache (same approach as
		// package chain).
		r.env.Send(r.group.Addr(r.group.N()-1), versionQuery{
			ObjID: pkt.ObjID, From: r.env.ID(),
			Pkt: &wire.Packet{Op: wire.OpWrite, Group: pkt.Group, ClientID: pkt.ClientID, ReqID: pkt.ReqID},
		})
		pkt.Release() // duplicate fully handled
		return
	}
	r.applyDirty(pkt)
}

// recvPropagate applies phase 1 at a non-head node.
func (r *Replica) recvPropagate(pkt *wire.Packet) { r.applyDirty(pkt) }

// applyDirty appends a dirty version and moves the write along.
func (r *Replica) applyDirty(pkt *wire.Packet) {
	if pkt.Seq.N <= r.lastVer {
		pkt.Release() // out-of-order write discarded
		return
	}
	r.lastVer = pkt.Seq.N
	o := r.obj(pkt.ObjID)
	o.versions = append(o.versions, version{
		n:     pkt.Seq.N,
		value: append([]byte(nil), pkt.Value...),
		del:   pkt.Flags&wire.FlagDelete != 0,
	})
	if r.IsTail() {
		r.commitAtTail(pkt, o)
		return
	}
	r.env.Send(r.group.Addr(r.next), propagate{Pkt: pkt})
}

// commitAtTail finishes the write: the tail marks it clean immediately
// and starts phase 2 upstream.
func (r *Replica) commitAtTail(pkt *wire.Packet, o *object) {
	o.commitUpTo(pkt.Seq.N)
	r.WritesCommitted++
	// The reply carries the write's sequence number so the switch on
	// the return path clears the object from its dirty set. CRAQ takes
	// no read assistance from the switch, but the switch still
	// sequences CRAQ's writes (the version numbers used here), and the
	// dirty set is the quiescence signal slot migration drains on — a
	// reply without the piggyback would leave entries nothing clears.
	rep := wire.NewPacket()
	rep.Op = wire.OpWriteReply
	rep.ObjID = pkt.ObjID
	rep.Group = pkt.Group
	rep.ClientID = pkt.ClientID
	rep.ReqID = pkt.ReqID
	rep.Key = pkt.Key
	rep.Seq = pkt.Seq
	r.ct.Complete(pkt.ClientID, pkt.ReqID, rep)
	r.env.SendSwitch(rep)
	if r.prev >= 0 {
		r.env.Send(r.group.Addr(r.prev), commitAck{ObjID: pkt.ObjID, N: pkt.Seq.N})
	}
	pkt.Release() // the tail's apply committed the write; version list holds a copy
}

// recvCommit applies phase 2 and relays it upstream.
func (r *Replica) recvCommit(m commitAck) {
	r.obj(m.ObjID).commitUpTo(m.N)
	if r.prev >= 0 {
		r.env.Send(r.group.Addr(r.prev), commitAck{ObjID: m.ObjID, N: m.N})
	}
}

// readAnywhere serves a read at this node: clean objects answer
// immediately; dirty objects require the tail's committed version.
func (r *Replica) readAnywhere(pkt *wire.Packet) {
	o, ok := r.objects[pkt.ObjID]
	if !ok || len(o.versions) == 0 {
		r.CleanReads++
		r.env.SendSwitch(r.notFound(pkt))
		pkt.Release()
		return
	}
	v := o.latest()
	if v.clean {
		r.CleanReads++
		r.env.SendSwitch(r.replyWith(pkt, v))
		pkt.Release()
		return
	}
	if r.IsTail() {
		// The tail's view is authoritative: its latest version is
		// committed by construction once commitUpTo ran; a dirty
		// latest here means the write is mid-commit, which cannot
		// happen at the tail (it commits on apply). Answer clean.
		r.CleanReads++
		r.env.SendSwitch(r.replyWith(pkt, v))
		pkt.Release()
		return
	}
	r.DirtyReads++
	r.env.Send(r.group.Addr(r.group.N()-1), versionQuery{
		ObjID: pkt.ObjID, From: r.env.ID(), Pkt: pkt,
	})
}

// recvVersionQuery answers at the tail with the committed version
// number (or re-replies to a duplicate write probe).
func (r *Replica) recvVersionQuery(m versionQuery) {
	if m.Pkt != nil && m.Pkt.Op == wire.OpWrite {
		// Duplicate-write probe from the head.
		if cached := r.ct.Cached(m.Pkt.ClientID, m.Pkt.ReqID); cached != nil {
			r.env.SendSwitch(cached.FlightClone())
		}
		m.Pkt.Release()
		return
	}
	o, ok := r.objects[m.ObjID]
	if !ok || len(o.versions) == 0 {
		r.env.Send(m.From, versionReply{ObjID: m.ObjID, Found: false, Pkt: m.Pkt})
		return
	}
	r.env.Send(m.From, versionReply{ObjID: m.ObjID, N: o.latest().n, Found: true, Pkt: m.Pkt})
}

// recvVersionReply finishes a dirty read with the tail's committed
// version.
func (r *Replica) recvVersionReply(m versionReply) {
	if m.Pkt == nil {
		return
	}
	defer m.Pkt.Release() // the pending read terminates here
	if !m.Found {
		r.env.SendSwitch(r.notFound(m.Pkt))
		return
	}
	o := r.obj(m.ObjID)
	v := o.at(m.N)
	if v == nil {
		// The committed version has been superseded here by newer
		// committed state (our commitUpTo garbage-collected it). The
		// oldest retained version is then at least as new and
		// committed; serve it.
		if len(o.versions) == 0 {
			r.env.SendSwitch(r.notFound(m.Pkt))
			return
		}
		v = &o.versions[0]
	}
	r.env.SendSwitch(r.replyWith(m.Pkt, v))
}

func (r *Replica) replyWith(pkt *wire.Packet, v *version) *wire.Packet {
	rep := wire.NewPacket()
	rep.Op = wire.OpReadReply
	rep.ObjID = pkt.ObjID
	rep.Group = pkt.Group
	rep.ClientID = pkt.ClientID
	rep.ReqID = pkt.ReqID
	rep.Key = pkt.Key
	if v.del {
		rep.Flags |= wire.FlagNotFound
	} else {
		rep.Value = append([]byte(nil), v.value...)
	}
	return rep
}

func (r *Replica) notFound(pkt *wire.Packet) *wire.Packet {
	rep := wire.NewPacket()
	rep.Op = wire.OpReadReply
	rep.Flags = wire.FlagNotFound
	rep.ObjID = pkt.ObjID
	rep.Group = pkt.Group
	rep.ClientID = pkt.ClientID
	rep.ReqID = pkt.ReqID
	rep.Key = pkt.Key
	return rep
}

// PreloadClean installs a committed version directly, used by the
// cluster harness to warm the key space before measurement.
func (r *Replica) PreloadClean(id wire.ObjectID, value []byte, verN uint64) {
	o := r.obj(id)
	o.versions = []version{{n: verN, value: append([]byte(nil), value...), clean: true}}
	if verN > r.lastVer {
		r.lastVer = verN
	}
}

// ExtractSlotClean returns the newest committed (clean) version of
// every live object in the given routing slot: value plus version
// number, with deleted objects omitted. Dirty versions are skipped —
// a slot handoff runs only after the slot drained, at which point the
// latest version of each of its objects is committed everywhere.
func (r *Replica) ExtractSlotClean(slot int) map[wire.ObjectID]struct {
	Value []byte
	N     uint64
} {
	out := make(map[wire.ObjectID]struct {
		Value []byte
		N     uint64
	})
	for id, o := range r.objects {
		if wire.SlotOf(id) != slot || len(o.versions) == 0 {
			continue
		}
		v := o.latest()
		if v.del {
			continue
		}
		out[id] = struct {
			Value []byte
			N     uint64
		}{Value: v.value, N: v.n}
	}
	return out
}

// DropSlot removes every object in the routing slot (handoff source
// cleanup after the route flipped), returning the count.
func (r *Replica) DropSlot(slot int) int {
	n := 0
	for id := range r.objects {
		if wire.SlotOf(id) == slot {
			delete(r.objects, id)
			n++
		}
	}
	r.slotCount[slot] -= int32(n)
	return n
}

// SlotCounts returns a copy of the per-slot object-entry counters —
// CRAQ's occupancy input to the rebalancer's ObjectCost veto. Entries
// whose latest version is a deletion are still counted (they occupy
// version storage until dropped), which keeps the counter O(1) and is
// exactly the occupancy a handoff copy would pay for.
func (r *Replica) SlotCounts() []int {
	out := make([]int, wire.NumSlots)
	for slot, n := range r.slotCount {
		out[slot] = int(n)
	}
	return out
}

// VersionCount reports the number of retained versions for an object
// (tests).
func (r *Replica) VersionCount(id wire.ObjectID) int {
	if o, ok := r.objects[id]; ok {
		return len(o.versions)
	}
	return 0
}
