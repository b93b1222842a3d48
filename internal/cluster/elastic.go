package cluster

import (
	"fmt"

	"harmonia/internal/core"
	"harmonia/internal/rebalance"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// Elastic membership: the four runtime mutations of the rack's
// epoch-versioned topology, each composed from the handoff lifecycle
// (handoff.go). AddGroup seeds a new group through ordinary migrations;
// RemoveGroup evacuates a group through them and then retires it;
// RespecGroup runs the full lifecycle on a group's own slots, with the
// revoke agreement and a member swap as its commit; ReassignDeadSwitch
// transfers a dead switch's shard from its groups' replica stores and
// retires them. Every mutation lands in rack.Topology exactly once and
// bumps its epoch; the rebalancer, the client load split and routing
// all read the new membership through that one indirection.

// --- AddGroup (scale-out) ---

// AddGroup grows the cluster by one replica group built from spec
// (defaulted by exactly the assembly-time rules) and returns its ID.
// The group is placed on the alive switch with the most heat per
// capacity unit, registered in the topology (epoch bump), and then
// seeded a weight-fair share of the slot space through ordinary
// online migrations — non-blocking, so scale-out under load costs at
// most the per-batch freeze windows, never a global pause. The
// returned Op settles once the seeding migrations finish and
// the group has served its priming write.
func (c *Cluster) AddGroup(spec GroupSpec) (int, *Op, error) {
	if len(c.groups) >= MaxGroups {
		return 0, nil, fmt.Errorf("cluster: group count is already at the maximum %d", MaxGroups)
	}
	if err := c.resolveRuntimeSpec(&spec); err != nil {
		return 0, nil, err
	}
	sw, err := c.placeGroup()
	if err != nil {
		return 0, nil, err
	}

	g := c.rack.AddGroup(sw, spec.Weight)
	grp := &replicaGroup{idx: g, spec: spec, n: spec.Replicas}
	c.groups = append(c.groups, grp)
	c.cfg.GroupSpecs = append(c.cfg.GroupSpecs, spec)
	c.cfg.Groups = len(c.groups)
	grp.sched = c.newScheduler(g, c.rack.Epoch(sw))
	c.rack.SetGroup(g, grp.sched)
	c.buildGroupReplicas(grp)
	c.linkGroup(grp)
	c.ctl.grantGroupLeases(g, c.rack.Epoch(sw))
	c.startSweep(grp)

	r := c.newOp("add", g)
	c.afterSettle(c.seedGroup(g), func() {
		if len(c.slotsOwned(func(o int) bool { return o == g })) == 0 {
			r.settle(fmt.Errorf("cluster: seeding group %d moved no slots (sources could not drain)", g))
			return
		}
		c.primeGroupAsync(g)
		r.settle(nil)
	})
	return g, r, nil
}

// resolveRuntimeSpec defaults a spec submitted at runtime by the
// assembly-time rules, holding it to the boot config's weight scale:
// explicit ratios and derived absolute service rates cannot mix.
func (c *Cluster) resolveRuntimeSpec(spec *GroupSpec) error {
	if c.weightsExplicit && !(spec.Weight > 0) {
		return fmt.Errorf("cluster: this cluster uses explicit capacity weights; the new spec must set one")
	}
	if !c.weightsExplicit && spec.Weight > 0 {
		return fmt.Errorf("cluster: this cluster derives capacity weights from calibration; the new spec must not set an explicit one")
	}
	c.cfg.resolveSpec(spec)
	if spec.Replicas > int(incStride) {
		return fmt.Errorf("cluster: group size %d exceeds the per-incarnation address window %d", spec.Replicas, incStride)
	}
	return nil
}

// placeGroup picks the switch a new group should live on: the alive
// switch carrying the most heat per capacity unit — new capacity goes
// where the rack is working hardest. Cold racks (no heat yet) fall
// back to the alive switch hosting the fewest live groups.
func (c *Cluster) placeGroup() (int, error) {
	topo := c.rack.Topo()
	n := c.rack.Switches()
	heat := make([]float64, n)
	cap := make([]float64, n)
	groups := make([]int, n)
	var sample [wire.NumSlots]core.SlotHeat
	c.rack.SlotHeatInto(sample[:])
	for slot, h := range sample[:] {
		heat[topo.SwitchOfSlot(slot)] += float64(h.Total())
	}
	for _, g := range topo.LiveGroups() {
		s := topo.SwitchOfGroup(g)
		cap[s] += topo.Weight(g)
		groups[s]++
	}
	best := -1
	var bestScore float64
	for s := 0; s < n; s++ {
		if c.net.IsDown(switchAddrOf(s)) {
			continue
		}
		score := 0.0
		if cap[s] > 0 {
			score = heat[s] / cap[s]
		}
		if best == -1 || score > bestScore ||
			(score == bestScore && groups[s] < groups[best]) {
			best, bestScore = s, score
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("cluster: no alive switch to place the new group on")
	}
	return best, nil
}

// seedGroup computes the new group's heat-aware slot seed (PlanSeed's
// largest-remainder apportionment over the new live set) and starts it
// as one non-blocking batch migration per source group. A batch that
// cannot start (its source grew a conflicting freeze since planning)
// is simply skipped: the rebalancer evens the share out later.
func (c *Cluster) seedGroup(g int) []*Op {
	var sample [wire.NumSlots]core.SlotHeat
	c.rack.SlotHeatInto(sample[:])
	heat := make([]rebalance.Heat, len(sample))
	for slot, h := range sample[:] {
		heat[slot] = rebalance.Heat{Reads: h.Reads, Writes: h.Writes}
	}
	topo := c.rack.Topo()
	moves := rebalance.PlanSeed(heat, c.rack.SlotTable(), topo.LiveWeights(), topo.LiveMask(), g)
	slots := make([]int, len(moves))
	for i, mv := range moves {
		slots[i] = mv.Slot
	}
	var migs []*Op
	for _, batch := range c.byOwner(slots, g) {
		if m, err := c.StartBatchMigration(batch, g); err == nil {
			migs = append(migs, m)
		}
	}
	return migs
}

// slotsOwned lists, in slot order, the slots whose owner satisfies by.
func (c *Cluster) slotsOwned(by func(g int) bool) []int {
	var out []int
	for slot := 0; slot < wire.NumSlots; slot++ {
		if by(c.rack.RouteOf(slot)) {
			out = append(out, slot)
		}
	}
	return out
}

// liveDests lists the live groups behind alive switches, except group
// skip — the destinations an evacuation may use.
func (c *Cluster) liveDests(skip int) []int {
	topo := c.rack.Topo()
	var dests []int
	for _, d := range topo.LiveGroups() {
		if d != skip && !c.net.IsDown(switchAddrOf(topo.SwitchOfGroup(d))) {
			dests = append(dests, d)
		}
	}
	return dests
}

// apportion splits slots, in order, into contiguous chunks sized by
// the destinations' capacity weights (largest remainder): dests[k]
// takes chunk k.
func (c *Cluster) apportion(slots, dests []int) [][]int {
	w := make([]float64, len(dests))
	for k, d := range dests {
		w[k] = c.rack.Topo().Weight(d)
	}
	chunks := make([][]int, len(dests))
	start := 0
	for k, n := range workload.Apportion(len(slots), w) {
		chunks[k] = slots[start : start+n]
		start += n
	}
	return chunks
}

// primeGroupAsync issues the new group's priming write once it owns an
// unfrozen slot, so its scheduler partition observes a first
// WRITE-COMPLETION and enables fast reads (§5.3 applies to scale-out
// exactly as to cold boots). Bounded retries: a group that lost all
// its slots again in the meantime simply stays unprimed.
func (c *Cluster) primeGroupAsync(g int) {
	tries := 0
	var tick func()
	tick = func() {
		if !c.rack.Live(g) {
			return
		}
		key, ok := c.keyInGroup(g, fmt.Sprintf("__prime__%d_", g), false)
		if !ok {
			if tries++; tries > 1024 {
				return
			}
			c.eng.After(migratePollInterval, tick)
			return
		}
		c.flushCtr++
		c.controlWrite(g, key, 1<<32+c.flushCtr, 0)
	}
	c.eng.After(migratePollInterval, tick)
}

// --- RemoveGroup (scale-in) ---

// StartRemoveGroup begins retiring group g: its slots are evacuated to
// the remaining live groups (weight-apportioned, via the ordinary
// online migrations — each batch carries its share of objects AND the
// group's at-most-once client table), and once the evacuation
// completes the group retires through the revoke agreement. If some
// batch could not drain, the group keeps those slots and stays live.
func (c *Cluster) StartRemoveGroup(g int) (*Op, error) {
	if err := c.checkLive(g); err != nil {
		return nil, err
	}
	dests := c.liveDests(g)
	if len(dests) == 0 {
		return nil, fmt.Errorf("cluster: no live destination group to evacuate group %d to", g)
	}
	slots := c.slotsOwned(func(o int) bool { return o == g })
	r := c.newOp("remove", g)
	if len(slots) == 0 {
		c.retireGroup(g, func() { r.settle(nil) })
		return r, nil
	}
	var migs []*Op
	for k, chunk := range c.apportion(slots, dests) {
		if len(chunk) == 0 {
			continue
		}
		m, err := c.StartBatchMigration(chunk, dests[k])
		if err != nil {
			for _, prev := range migs {
				prev.Abort()
			}
			r.settle(err)
			return nil, err
		}
		migs = append(migs, m)
	}
	c.afterSettle(migs, func() {
		for _, m := range migs {
			if m.aborted {
				r.settle(fmt.Errorf("cluster: evacuating group %d aborted (%d slot(s) stayed)", g, len(m.Slots)))
				return
			}
		}
		c.retireGroup(g, func() { r.settle(nil) })
	})
	return r, nil
}

// --- RespecGroup (live membership swap) ---

// StartRespecGroup replaces group g's member set with one built from
// spec — a different protocol, replica count, or calibration — without
// moving any of its slots: the whole lifecycle runs on the group's own
// slots. The drain waits for the entire partition (its flush nudges are
// forced through the freeze), the revoke agreement runs over the OLD
// members, the transfer copies the objects and client table into the
// NEW incarnation (fresh addresses in the next incarnation sub-window),
// and the commit resumes at the same switch epoch with the sequence
// space continued — in-flight sequencing state survives the swap, so
// the write-order guard never trips.
func (c *Cluster) StartRespecGroup(g int, spec GroupSpec) (*Op, error) {
	if err := c.checkLive(g); err != nil {
		return nil, err
	}
	grp := c.groups[g]
	if grp.inc+1 >= maxIncarnations {
		return nil, fmt.Errorf("cluster: group %d exhausted its %d membership incarnations", g, maxIncarnations)
	}
	if err := c.resolveRuntimeSpec(&spec); err != nil {
		return nil, err
	}
	slots := c.slotsOwned(func(o int) bool { return o == g })
	for _, slot := range slots {
		if _, busy := c.held[slot]; busy || c.rack.Frozen(slot) {
			return nil, fmt.Errorf("cluster: slot %d of group %d is mid-migration; retry after it settles", slot, g)
		}
	}
	r := c.newOp("respec", g)
	var oldAddrs []simnet.NodeID
	var oldSched *core.Scheduler
	h := &handoff{
		op: r, slots: slots,
		drain:  &drain{group: g, clear: func(s *core.Scheduler) bool { return s.DirtyCount() == 0 }},
		revoke: true, group: g,
		legs: []leg{{from: grp.replicas, slots: slots, to: g}},
		prepare: func() {
			// The extract read the OLD members; now build the new
			// incarnation: fresh addresses, same group ID, same slots.
			oldAddrs, oldSched = grp.addrs(), grp.sched
			grp.inc++
			grp.spec = spec
			grp.n = spec.Replicas
			c.cfg.GroupSpecs[g] = spec
			c.buildGroupReplicas(grp)
			c.linkGroup(grp)
		},
	}
	h.commit = func() {
		next := c.newScheduler(g, h.epoch)
		next.AdoptFrom(oldSched)
		c.rack.SetGroup(g, next)
		grp.sched = next
		// The respec'd incarnation only received the group's own slots:
		// promoted-key copies it held as a foreign holder did not
		// travel, so stop spreading reads to it.
		c.hotKeysDropGroup(g)
		c.ctl.grantGroupLeases(g, h.epoch)
		for _, a := range oldAddrs {
			c.net.SetDown(a, true)
		}
		// The weight may have changed with the spec; installing it bumps
		// the topology epoch either way, announcing the membership
		// revision to every epoch-keyed consumer.
		c.rack.SetGroupWeight(g, spec.Weight)
	}
	c.run(h)
	return r, nil
}

// --- ReassignDeadSwitch (disaster recovery) ---

// StartReassignDeadSwitch batch-migrates a permanently dead switch's
// entire slot shard to the surviving switches' live groups. The dead
// front-end cannot drain — it is gone, along with its scheduler
// partitions — so this is transfer and commit only: the victims'
// replica stores hold every committed write (the replicas are servers,
// not switch state), and the victims' at-most-once client tables are
// merged into EVERY destination so a retry of any lost reply replays
// wherever its key now routes. The commit flips the routes and retires
// the victims; the topology epoch moves once per retired group.
func (c *Cluster) StartReassignDeadSwitch(s int) (*Op, error) {
	if s < 0 || s >= c.rack.Switches() {
		return nil, fmt.Errorf("cluster: switch %d out of range", s)
	}
	if !c.net.IsDown(switchAddrOf(s)) {
		return nil, fmt.Errorf("cluster: switch %d is alive; use slot migration instead", s)
	}
	victims := c.rack.GroupsOf(s)
	if len(victims) == 0 {
		return nil, fmt.Errorf("cluster: switch %d hosts no live groups", s)
	}
	dests := c.liveDests(-1)
	if len(dests) == 0 {
		return nil, fmt.Errorf("cluster: no surviving live group to reassign switch %d's slots to", s)
	}
	victim := make(map[int]bool, len(victims))
	for _, v := range victims {
		victim[v] = true
	}
	chunks := c.apportion(c.slotsOwned(func(o int) bool { return victim[o] }), dests)
	// One leg per (destination, victim): the destination's chunk of the
	// victim's slots, plus the victim's client table.
	var legs []leg
	for k, d := range dests {
		for _, v := range victims {
			var own []int
			for _, slot := range chunks[k] {
				if c.rack.RouteOf(slot) == v {
					own = append(own, slot)
				}
			}
			legs = append(legs, leg{from: c.groups[v].replicas, slots: own, to: d})
		}
	}
	r := c.newOp("reassign", s)
	c.run(&handoff{legs: legs, commit: func() {
		for k, d := range dests {
			for _, slot := range chunks[k] {
				// SetRoute transfers front-end ownership off the dead
				// switch; the destination picks the slot up thawed.
				c.rack.SetRoute(slot, d)
			}
		}
		remaining := len(victims)
		for _, v := range victims {
			c.retireGroup(v, func() {
				if remaining--; remaining == 0 {
					r.settle(nil)
				}
			})
		}
	}})
	return r, nil
}
