// Package pb implements the primary-backup replication protocol (§2 of
// the paper) with the Harmonia adaptations of §7.2.
//
// The primary orders writes and transfers them to every backup; it
// replies to the client only after all backups acknowledge, so the
// protocol is read-ahead: replicas may hold applied-but-uncommitted
// state, and fast-path reads are validated with the last-committed
// stamp (integrity check P2). WRITE-COMPLETIONs piggyback on the write
// reply, which traverses the switch on its way to the client.
package pb

import (
	"harmonia/internal/protocol"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// update carries a write from the primary to the backups.
type update struct {
	Pkt *wire.Packet
}

// CostClass classifies applying the update as a full write.
func (update) CostClass() protocol.CostClass { return protocol.CostWrite }

// updateAck acknowledges an applied update.
type updateAck struct {
	Seq     wire.Seq
	Replica int
}

// CostClass classifies the ack as control traffic.
func (updateAck) CostClass() protocol.CostClass { return protocol.CostControl }

// pendingWrite tracks a write awaiting backup acknowledgments.
type pendingWrite struct {
	pkt   *wire.Packet
	acked map[int]bool
}

// queuedRead is a normal-path read waiting for the object's pending
// writes to commit.
type queuedRead struct {
	pkt     *wire.Packet
	barrier wire.Seq // committed point that releases the read
}

// Replica is one primary-backup group member. Index 0 is the primary.
type Replica struct {
	*protocol.Base

	// Primary-only state.
	pending      map[uint64]*pendingWrite   // keyed by Seq.N (single epoch at a time)
	pendingByObj map[wire.ObjectID]wire.Seq // largest pending seq per object
	committed    wire.Seq
	reads        []queuedRead

	// active marks which backups the primary waits for (server
	// failure handling removes crashed ones).
	active map[int]bool

	// Stats
	WritesCommitted uint64
	ReadsServed     uint64
	ReadsQueued     uint64
}

// New builds a replica.
func New(env protocol.Env, g protocol.GroupConfig) *Replica {
	r := &Replica{
		Base:         protocol.NewBase(env, g, protocol.ReadAhead),
		pending:      make(map[uint64]*pendingWrite),
		pendingByObj: make(map[wire.ObjectID]wire.Seq),
		active:       make(map[int]bool),
	}
	for i := 1; i < g.N(); i++ {
		r.active[i] = true
	}
	return r
}

// IsPrimary reports whether this replica is the primary.
func (r *Replica) IsPrimary() bool { return r.Group.Self == 0 }

// primaryAddr returns the primary's address.
func (r *Replica) primaryAddr() simnet.NodeID { return r.Group.Addr(0) }

// Recv implements simnet.Handler.
func (r *Replica) Recv(from simnet.NodeID, msg simnet.Message) {
	if r.HandleControl(msg) {
		return
	}
	switch m := msg.(type) {
	case *wire.Packet:
		r.recvPacket(m)
	case update:
		r.recvUpdate(m)
	case updateAck:
		r.recvUpdateAck(m)
	}
}

func (r *Replica) recvPacket(pkt *wire.Packet) {
	switch pkt.Op {
	case wire.OpWrite:
		if r.IsPrimary() {
			r.primaryWrite(pkt)
			return
		}
		// Writes to a backup are a routing error; drop.
		pkt.Release()
	case wire.OpRead:
		if pkt.Flags&wire.FlagFastPath != 0 {
			if r.HandleFastRead(pkt, r.normalTarget()) {
				r.normalRead(pkt)
			}
			return
		}
		if r.IsPrimary() {
			r.normalRead(pkt)
			return
		}
		// A normal-path read landed on a backup (stale switch
		// targets); pass it to the primary.
		r.Env.Send(r.primaryAddr(), pkt)
	}
}

func (r *Replica) normalTarget() protocol.SendTarget {
	if r.IsPrimary() {
		return protocol.TargetSelf()
	}
	return protocol.Target(r.primaryAddr())
}

// primaryWrite handles a sequenced write at the primary.
func (r *Replica) primaryWrite(pkt *wire.Packet) {
	execute, cached := r.CT.Admit(pkt.ClientID, pkt.ReqID)
	if !execute {
		if cached != nil {
			// Retransmission of a completed write: re-reply without
			// re-piggybacking a completion (strip the seq so the
			// switch does not process it twice; harmless either way,
			// but cleaner). The cached reply stays in the table; a
			// pooled flight copy goes on the wire.
			rep := cached.FlightClone()
			rep.Seq = wire.ZeroSeq
			r.Env.SendSwitch(rep)
		}
		pkt.Release() // duplicate fully handled
		return
	}
	if err := r.Store.Apply(pkt.ObjID, pkt.Value, pkt.Seq, pkt.Flags&wire.FlagDelete != 0); err != nil {
		// Out of sequence order (§5.2 write-order requirement):
		// discard; the client retries with a fresh sequence number.
		pkt.Release()
		return
	}
	// The pending entry keeps the delivery reference; each backup
	// update carries its own, released by recvUpdate.
	pw := &pendingWrite{pkt: pkt, acked: make(map[int]bool)}
	r.pending[pkt.Seq.N] = pw
	if r.pendingByObj[pkt.ObjID].Less(pkt.Seq) {
		r.pendingByObj[pkt.ObjID] = pkt.Seq
	}
	for i := 1; i < r.Group.N(); i++ {
		if r.active[i] {
			r.Env.Send(r.Group.Addr(i), update{Pkt: pkt.Retain()})
		}
	}
	r.maybeCommit(pkt.Seq) // zero backups: commits immediately
}

// recvUpdate applies a state transfer at a backup.
func (r *Replica) recvUpdate(m update) {
	pkt := m.Pkt
	defer pkt.Release() // the backup keeps nothing past this call
	if err := r.Store.Apply(pkt.ObjID, pkt.Value, pkt.Seq, pkt.Flags&wire.FlagDelete != 0); err != nil {
		// Out-of-order update: dropped, no ack, so the write cannot
		// commit and the client will retry. This keeps the §5.2
		// invariant without any reordering buffer.
		return
	}
	r.Env.Send(r.primaryAddr(), updateAck{Seq: pkt.Seq, Replica: r.Group.Self})
}

// recvUpdateAck collects acknowledgments at the primary.
func (r *Replica) recvUpdateAck(m updateAck) {
	pw, ok := r.pending[m.Seq.N]
	if !ok {
		return
	}
	pw.acked[m.Replica] = true
	r.maybeCommit(m.Seq)
}

// fullyAcked reports whether every active backup acknowledged pw.
func (r *Replica) fullyAcked(pw *pendingWrite) bool {
	for i := range r.active {
		if r.active[i] && !pw.acked[i] {
			return false
		}
	}
	return true
}

// maybeCommit commits the write at seq — and every earlier pending
// write — once fully acknowledged. Because backups apply updates in
// sequence order, full acknowledgment of seq implies every earlier
// write is applied everywhere, even if its acks were reordered away.
func (r *Replica) maybeCommit(seq wire.Seq) {
	pw, ok := r.pending[seq.N]
	if !ok || !r.fullyAcked(pw) {
		return
	}
	for n, p := range r.pending {
		if n <= seq.N {
			r.commit(p)
			delete(r.pending, n)
		}
	}
	if r.committed.Less(seq) {
		r.committed = seq
	}
	r.releaseReads()
}

// commit replies to the client with a piggybacked WRITE-COMPLETION.
func (r *Replica) commit(pw *pendingWrite) {
	r.WritesCommitted++
	pkt := pw.pkt
	if mx, ok := r.pendingByObj[pkt.ObjID]; ok && mx.LessEq(pkt.Seq) {
		delete(r.pendingByObj, pkt.ObjID)
	}
	rep := r.WriteReply(pkt, true)
	r.CT.Complete(pkt.ClientID, pkt.ReqID, rep)
	r.Env.SendSwitch(rep)
	pkt.Release() // pending entry retired with the commit
}

// normalRead serves a read on the normal protocol path at the primary:
// reads of objects with pending (uncommitted) writes wait for those
// writes to commit, so the reply always reflects committed state.
func (r *Replica) normalRead(pkt *wire.Packet) {
	if barrier, ok := r.pendingByObj[pkt.ObjID]; ok {
		r.ReadsQueued++
		r.reads = append(r.reads, queuedRead{pkt: pkt, barrier: barrier})
		return
	}
	r.ReadsServed++
	r.Env.SendSwitch(r.ReadReply(pkt))
	pkt.Release()
}

// releaseReads serves queued reads whose barrier write has committed.
func (r *Replica) releaseReads() {
	rest := r.reads[:0]
	for _, q := range r.reads {
		if q.barrier.LessEq(r.committed) {
			r.ReadsServed++
			r.Env.SendSwitch(r.ReadReply(q.pkt))
			q.pkt.Release()
		} else {
			rest = append(rest, q)
		}
	}
	r.reads = rest
}

// RemoveBackup excludes a crashed backup from the ack set (§5.3 server
// failure handling: the protocol reconfigures and the switch control
// plane is updated separately). Pending writes blocked only on the
// removed backup commit immediately.
func (r *Replica) RemoveBackup(idx int) {
	if idx == 0 || !r.IsPrimary() {
		delete(r.active, idx)
		return
	}
	delete(r.active, idx)
	for _, pw := range r.pending {
		r.maybeCommit(pw.pkt.Seq)
	}
}

// PendingWrites reports the primary's in-flight write count (tests).
func (r *Replica) PendingWrites() int { return len(r.pending) }

// QueuedReads reports reads blocked behind pending writes (tests).
func (r *Replica) QueuedReads() int { return len(r.reads) }
