package cluster

import (
	"fmt"
	"slices"
	"time"

	"harmonia/internal/core"
	"harmonia/internal/protocol"
	"harmonia/internal/sim"
	"harmonia/internal/store"
	"harmonia/internal/trace"
	"harmonia/internal/wire"
)

// The handoff lifecycle. Every control-plane operation of this package
// is one run of the §5.3 switch-replacement pattern — stop the old
// authority, let the pending writes leave the dirty set, agree through
// lease revocation, resume — applied to something smaller than a
// switch:
//
//  1. freeze — the front-end drops the client reads and writes of the
//     run's slots, exactly as a booting switch drops everything; client
//     timeouts handle retry. Replica-originated traffic (replies,
//     completions) still flows, which is what lets the source drain.
//  2. drain — wait until the scheduler partition's dirty set holds
//     nothing the caller's predicate cares about: a migration waits on
//     its slots, a respec on the whole partition, a hot-key refresh on
//     one key. In-order write processing (§5.2) makes this the full
//     quiescence signal: every write the switch sequenced there has
//     either committed everywhere or can never apply. Each check first
//     sweeps the stray entries (lost WRITE-COMPLETIONs) the commit
//     point has passed; every migrateFlushEvery blocked checks a flush
//     write nudges an otherwise idle group's commit point past a stray
//     nothing else would clear. At the deadline the run aborts and
//     thaws — abort is the normal way out of a drain that cannot
//     finish, not a special case of each operation.
//  3. revoke (optional) — the §5.3 agreement: every live member of the
//     group acknowledges losing its lease, so no member can serve a
//     fast read past this point.
//  4. transfer — the newest version of each object across the source
//     replicas (a max-merge, which also covers a replica lagging in
//     apply), sequence-neutered to epoch 0, plus the merged at-most-once
//     client tables. It costs one control round trip plus
//     migratePerObjectCost per object, then installs at the destination.
//  5. commit — the caller's step: flip the routes, swap the members,
//     retire the group.
//  6. thaw — the slots unfreeze; the next retry of any dropped request
//     lands on whichever group owns the slot now, which has everything.
//
// Migration and respec run all six steps; retirement is revoke and
// commit; dead-switch reassignment is transfer and commit. The hot-key
// refresh has no slots to freeze and is re-driven by its own tick, but
// drains, extracts and transfers through the same functions.
const (
	// migratePollInterval paces the drain checks and the settle ticks.
	migratePollInterval = 100 * time.Microsecond
	// migrateFlushEvery is how many blocked drain checks pass between
	// flush writes nudging an idle group's commit point forward.
	migrateFlushEvery = 5
	// migratePerObjectCost models the state-transfer time per copied
	// object (on top of one round trip).
	migratePerObjectCost = 200 * time.Nanosecond
	// migrateDeadline bounds a drain: a check past it aborts the run.
	migrateDeadline = 500 * time.Millisecond
	// waitDeadline bounds Wait: the slowest operation (evacuate every
	// slot of a group, then run the revoke agreement) is a handful of
	// drain deadlines end to end.
	waitDeadline = 4 * migrateDeadline
)

// Op is one control-plane operation: a batch slot migration
// ("migrate") or an elastic membership change ("add", "remove",
// "respec", "reassign"). The Start* calls return it at once; it then
// advances on simulation timers while load keeps running, and settles
// exactly once — Done, or Aborted with Err saying why. Wait drives the
// simulation until a set of operations settles.
type Op struct {
	// Kind names the operation.
	Kind string
	// Group is the group the operation targets (a migration's
	// destination; for "reassign", the dead switch's ID instead).
	Group int
	// Slots lists the slots a migration moves, From → To.
	Slots    []int
	From, To int

	c       *Cluster
	h       *handoff // the run an Abort would cancel
	objects int
	done    bool
	aborted bool
	err     error

	// auto marks a handoff started by the rebalancer control loop; its
	// completed slot moves land in the cluster's Rebalances counter.
	auto bool
}

// Migration and Reconfig name an Op too: the benchmark module
// (perfbench/) uses both names.
type (
	Migration = Op
	Reconfig  = Op
)

// Done reports whether the operation completed.
func (op *Op) Done() bool { return op.done }

// Aborted reports whether the operation ended without completing. An
// aborted migration thawed its slots on their original group.
func (op *Op) Aborted() bool { return op.aborted }

// Err returns why an aborted operation ended (nil otherwise).
func (op *Op) Err() error { return op.err }

// Objects returns the number of objects transferred (valid once Done).
func (op *Op) Objects() int { return op.objects }

func (op *Op) settled() bool { return op.done || op.aborted }

// Abort cancels an operation that is still draining: its slots thaw
// where they were. It reports whether the cancellation took effect —
// past the drain the operation is committed and will complete.
func (op *Op) Abort() bool {
	return op.h != nil && op.c.abort(op.h, fmt.Errorf("cluster: %v aborted", op))
}

// String names the operation in error messages.
func (op *Op) String() string {
	switch op.Kind {
	case "migrate":
		return fmt.Sprintf("migration of %d slot(s) from group %d to group %d", len(op.Slots), op.From, op.To)
	case "reassign":
		return fmt.Sprintf("reassignment of switch %d", op.Group)
	}
	return fmt.Sprintf("%s of group %d", op.Kind, op.Group)
}

// newOp registers an operation in flight.
func (c *Cluster) newOp(kind string, group int) *Op {
	op := &Op{Kind: kind, Group: group, c: c}
	c.inflight = append(c.inflight, op)
	return op
}

// settle ends op: done when err is nil, aborted with err otherwise.
func (op *Op) settle(err error) {
	if op.settled() {
		return
	}
	if err != nil {
		op.aborted, op.err = true, err
	} else {
		op.done = true
	}
	if i := slices.Index(op.c.inflight, op); i >= 0 {
		op.c.inflight = slices.Delete(op.c.inflight, i, i+1)
	}
}

// settledAll reports whether every op has settled.
func settledAll(ops []*Op) bool {
	for _, op := range ops {
		if !op.settled() {
			return false
		}
	}
	return true
}

// Wait drives the simulation until every op settles and returns the
// first one's error, in argument order. An op still unsettled after
// waitDeadline is reported; it cannot be still draining by then, since
// every drain aborts itself at migrateDeadline.
func (c *Cluster) Wait(ops ...*Op) error {
	deadline := c.eng.Now() + sim.Time(waitDeadline)
	for !settledAll(ops) && c.eng.Now() < deadline && c.eng.Step() {
	}
	for _, op := range ops {
		if op.aborted {
			return op.err
		}
		if !op.done {
			return fmt.Errorf("cluster: %v did not complete", op)
		}
	}
	return nil
}

// afterSettle calls fn on the first settle tick at which every op has
// settled — how AddGroup and RemoveGroup chain onto their migrations.
// An empty set settles on the first tick.
func (c *Cluster) afterSettle(ops []*Op, fn func()) {
	var tick func()
	tick = func() {
		if !settledAll(ops) {
			c.eng.After(migratePollInterval, tick)
			return
		}
		fn()
	}
	c.eng.After(migratePollInterval, tick)
}

// handoff is one run of the lifecycle. Optional steps are skipped when
// their fields are zero.
type handoff struct {
	op    *Op   // settled by the run; nil when the caller settles it
	slots []int // frozen from start to thaw
	emit  bool  // record the per-slot migration events

	drain    *drain // runs that drain always carry an op
	deadline sim.Time

	revoke bool
	group  int    // the group the agreement covers
	epoch  uint32 // the epoch it revoked; read by commit

	legs    []leg
	prepare func() // between the extract and the transfer delay
	commit  func()

	committing bool // past the drain: can no longer abort
}

// run starts h: the freeze, then the drain's first check one poll
// interval later (or, with nothing to drain, the rest at once).
func (c *Cluster) run(h *handoff) {
	for _, s := range h.slots {
		c.held[s] = h.op
		c.rack.FreezeSlot(s)
		if h.emit {
			c.emitSlot(trace.EvMigrationStart, s, h.op.From, h.op.To)
		}
	}
	if h.op != nil {
		h.op.h = h
	}
	if h.drain == nil {
		c.agree(h)
		return
	}
	h.deadline = c.eng.Now() + sim.Time(migrateDeadline)
	c.eng.After(migratePollInterval, func() { c.poll(h) })
}

// poll is one drain check of a run, re-armed until the partition
// drains or the deadline passes.
func (c *Cluster) poll(h *handoff) {
	if h.op.aborted {
		return
	}
	if c.eng.Now() >= h.deadline {
		// The source could not drain in a generous window (e.g. it can
		// no longer commit anything): give the slots back. Blocking
		// callers report the abort; the rebalancer re-plans from fresh
		// heat once the imbalance persists.
		c.abort(h, fmt.Errorf("cluster: %v could not drain within %v; aborted, its slots stay where they were", h.op, migrateDeadline))
		return
	}
	if sched := c.groups[h.drain.group].sched; sched != nil && c.drainCheck(h.drain, sched) {
		c.agree(h)
		return
	}
	c.eng.After(migratePollInterval, func() { c.poll(h) })
}

// agree is step 3: the optional revoke agreement, then the transfer.
func (c *Cluster) agree(h *handoff) {
	h.committing = true
	if !h.revoke {
		c.move(h)
		return
	}
	g := h.group
	h.epoch = c.rack.Epoch(c.rack.SwitchOfGroup(g))
	c.groups[g].leaseGen++ // cut the old grant chain before anything re-arms it
	c.ctl.revokeThen(g, h.epoch, func() { c.move(h) })
}

// move is step 4: extract every leg now, deliver after the transfer
// delay (the slots stay frozen while the copy is in flight).
func (c *Cluster) move(h *handoff) {
	if len(h.legs) == 0 {
		c.finish(h)
		return
	}
	for i := range h.legs {
		l := &h.legs[i]
		l.objs, l.clients = extractSlots(l.from, l.slots), mergeClientTables(l.from, l.to)
		if h.op != nil {
			h.op.objects += len(l.objs)
		}
	}
	if h.prepare != nil {
		h.prepare()
	}
	c.transfer(h.legs, func() { c.finish(h) })
}

// finish installs the delivered legs, then commits (step 5) and thaws
// (step 6).
func (c *Cluster) finish(h *handoff) {
	for _, l := range h.legs {
		for _, r := range c.groups[l.to].replicas {
			r.InstallSlot(l.objs)
			r.MergeClients(l.clients)
		}
	}
	h.commit()
	for _, l := range h.legs {
		protocol.ReleaseRecords(l.clients)
	}
	c.thaw(h, trace.EvMigrationFlip)
	if h.op != nil {
		h.op.settle(nil)
	}
}

// abort cancels a run that has not left its drain, thawing its slots.
func (c *Cluster) abort(h *handoff, err error) bool {
	if h.committing || h.op.settled() {
		return false
	}
	c.thaw(h, trace.EvMigrationAbort)
	h.op.settle(err)
	return true
}

// thaw is step 6; ev is the per-slot event of a migration's ending.
func (c *Cluster) thaw(h *handoff, ev trace.EventKind) {
	for _, s := range h.slots {
		c.rack.UnfreezeSlot(s)
		delete(c.held, s)
		if !h.emit {
			continue
		}
		if ev == trace.EvMigrationFlip {
			c.emitSlot(ev, s, h.op.To, h.op.From)
		} else {
			c.emitSlot(ev, s, h.op.From, h.op.To)
		}
	}
}

func (c *Cluster) emitSlot(kind trace.EventKind, slot, group, arg int) {
	c.rec.Emit(trace.Event{
		Kind: kind, Switch: int16(c.rack.SwitchOfSlot(slot)),
		Group: int16(group), Slot: int16(slot), Arg: uint64(arg),
	})
}

// retireGroup takes group g out of service for good — revoke and
// commit: once every live member acknowledged losing its lease, the
// scheduler partition is torn down, the topology marks the ID dead
// (epoch bump) and the members shut down; then runs last.
func (c *Cluster) retireGroup(g int, then func()) {
	grp := c.groups[g]
	c.run(&handoff{revoke: true, group: g, commit: func() {
		c.rack.SetGroup(g, nil)
		grp.sched = nil
		c.rack.RetireGroup(g)
		for _, addr := range grp.addrs() {
			c.net.SetDown(addr, true)
		}
		// Any promoted key g held a replica of must stop spreading
		// there in the same event — g's copies leave with it.
		c.hotKeysDropGroup(g)
		then()
	}})
}

// drain is step 2's state: the partition, what must leave its dirty
// set, and how many checks found it still there.
type drain struct {
	group   int // the partition's group; flush nudges go here
	clear   func(*core.Scheduler) bool
	blocked int
}

// drainCheck is one drain check against sched, the partition as the
// caller sees it. It reports whether the predicate holds.
func (c *Cluster) drainCheck(d *drain, sched *core.Scheduler) bool {
	// DirtyCount is a cheap occupancy counter gating the register scan.
	if sched.DirtyCount() > 0 {
		sched.SweepStale()
	}
	if d.clear(sched) {
		d.blocked = 0
		return true
	}
	if d.blocked++; d.blocked%migrateFlushEvery == 0 {
		// Still busy and nothing has cleared it: the group may be idle
		// with a stray whose completion was lost. A write advances the
		// commit point past it so the next sweep reclaims it.
		c.flushWrite(d.group)
	}
	return false
}

// flushWrite issues one control write to group g, preferring unfrozen
// slots, so the group's last-committed point advances even when client
// load is idle (request IDs above 1<<32 keep clear of the boot
// priming's). When EVERY slot the group serves is frozen — the
// whole-group drain of a membership respec — the nudge is forced
// through the freeze with wire.FlagFlush: the flush write quiesces like
// any other and its object travels with the batch, but without it the
// drain would wedge on a stray entry forever.
func (c *Cluster) flushWrite(g int) {
	var flags wire.Flags
	key, ok := c.keyInGroup(g, fmt.Sprintf("__flush__%d_", g), false)
	if !ok {
		key, ok = c.keyInGroup(g, fmt.Sprintf("__flush__%d_", g), true)
		if !ok {
			return
		}
		flags = wire.FlagFlush
	}
	c.flushCtr++
	c.controlWrite(g, key, 1<<32+c.flushCtr, flags)
}

// leg is one source → destination stream of a transfer, and what it
// carries once extracted.
type leg struct {
	from  []ReplicaHandle
	slots []int
	to    int

	objs    map[wire.ObjectID]store.Object
	clients map[uint32]protocol.ClientRecord
}

// transfer delivers legs: then runs after one control round trip plus
// migratePerObjectCost per object.
func (c *Cluster) transfer(legs []leg, then func()) {
	n := 0
	for _, l := range legs {
		n += len(l.objs)
	}
	c.eng.After(2*c.cfg.LinkLatency+time.Duration(n)*migratePerObjectCost, then)
}

// newest is the transfer's max-merge: per object the highest sequence
// number seen across the source replicas wins.
type newest map[wire.ObjectID]store.Object

func (m newest) keep(id wire.ObjectID, o store.Object) {
	if cur, ok := m[id]; !ok || cur.Seq.Less(o.Seq) {
		m[id] = o
	}
}

// neutered returns the winners with epoch-0 sequence numbers: each
// group's scheduler counts in its own sequence space, and importing a
// foreign high-water mark would wedge the destination's write-order
// guard, while an epoch-0 object passes the §7 read checks everywhere.
func (m newest) neutered() map[wire.ObjectID]store.Object {
	for id, o := range m {
		m[id] = store.Object{Value: o.Value, Seq: wire.Seq{Epoch: 0, N: o.Seq.N}}
	}
	return m
}

// extractSlots max-merges the objects reps hold in slots.
func extractSlots(reps []ReplicaHandle, slots []int) map[wire.ObjectID]store.Object {
	m := make(newest)
	for _, r := range reps {
		for _, slot := range slots {
			for id, o := range r.ExtractSlot(slot) {
				m.keep(id, o)
			}
		}
	}
	return m.neutered()
}

// mergeClientTables merges the at-most-once client tables of a
// replica set into one overlay for group dst. They travel with the
// objects: a write the source executed whose reply was lost in flight
// is still being retried by its client, and after the flip that retry
// lands on the destination — whose table would otherwise admit it as
// fresh and re-execute it, possibly clobbering a newer committed value
// of the same key. Per client the newest request wins, and kept
// replies are re-stamped for dst with a zero Seq (so a replay's
// traversal of the switch cannot masquerade as a write-completion and
// inflate a commit point).
func mergeClientTables(replicas []ReplicaHandle, dst int) map[uint32]protocol.ClientRecord {
	clients := make(map[uint32]protocol.ClientRecord)
	for _, r := range replicas {
		for id, rec := range r.ExportClients() {
			cur, ok := clients[id]
			if !ok || rec.ReqID > cur.ReqID || (rec.ReqID == cur.ReqID && cur.Reply == nil && rec.Reply != nil) {
				if ok && cur.Reply != nil {
					cur.Reply.Release()
				}
				clients[id] = rec
			} else if rec.Reply != nil {
				rec.Reply.Release()
			}
		}
	}
	for id, rec := range clients {
		if rec.Reply == nil {
			continue
		}
		// Re-stamp on a pooled flight copy owned by the returned record
		// set (the caller drops it with ReleaseRecords after merging);
		// the exported reference returns to its table's lifecycle.
		rep := rec.Reply.FlightClone()
		rep.Seq = wire.Seq{}
		rep.Group = uint16(dst)
		rec.Reply.Release()
		clients[id] = protocol.ClientRecord{ReqID: rec.ReqID, Reply: rep}
	}
	return clients
}
