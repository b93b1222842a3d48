package cluster

import (
	"fmt"

	"harmonia/internal/core"
	"harmonia/internal/wire"
)

// Online slot migration (group rebalancing): the handoff lifecycle
// (handoff.go) applied to a set of routing slots moving from one source
// group to one destination. The drain waits on the batch's own slots,
// the commit drops the source copies and flips the routes. A batch pays
// the freeze window, the drain, the copy round trip and the flip ONCE
// for the whole slot set — the amortization that makes rebalancing
// rounds cheap enough to run from a control loop.

// StartBatchMigration begins an online handoff of a set of slots to
// group "to" as ONE operation and returns immediately; the handoff
// advances on simulation timers so load keeps running while the slots
// migrate. Slots already routed to "to" are dropped from the batch as
// no-ops; the remaining slots must share a single current owner (use
// StartMigrateSlots to move a mixed-owner set). An empty or fully-no-op
// batch completes instantly without freezing anything. At most one
// handoff per slot may be in flight; different slots migrate
// concurrently.
func (c *Cluster) StartBatchMigration(slots []int, to int) (*Op, error) {
	if to < 0 || to >= len(c.groups) {
		return nil, fmt.Errorf("cluster: destination group %d out of range", to)
	}
	if err := checkSlots(slots); err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(slots))
	var live []int
	for _, s := range slots {
		if seen[s] {
			return nil, fmt.Errorf("cluster: slot %d listed twice in the batch", s)
		}
		seen[s] = true
		if c.rack.RouteOf(s) == to {
			continue // already there: a no-op, not a handoff
		}
		live = append(live, s)
	}
	if len(live) == 0 {
		// Nothing to move. No freeze, no drain, no copy: the route is
		// already correct for every requested slot.
		return &Op{Kind: "migrate", Group: to, From: to, To: to, c: c, done: true}, nil
	}
	from := c.rack.RouteOf(live[0])
	for _, s := range live[1:] {
		if g := c.rack.RouteOf(s); g != from {
			return nil, fmt.Errorf("cluster: batch spans source groups %d and %d (slot %d); use StartMigrateSlots", from, g, s)
		}
	}
	for _, s := range live {
		if op, busy := c.held[s]; busy {
			return nil, fmt.Errorf("cluster: slot %d is held by an in-flight %s", s, op.Kind)
		}
	}
	op := c.newOp("migrate", to)
	op.Slots, op.From, op.To = live, from, to
	src := c.groups[from].replicas
	c.run(&handoff{
		op: op, slots: live, emit: true,
		drain: &drain{group: from, clear: func(s *core.Scheduler) bool {
			return s.DirtyCount() == 0 || s.DirtyInSlots(live) == 0
		}},
		legs: []leg{{from: src, slots: live, to: to}},
		commit: func() {
			for _, r := range src {
				for _, s := range live {
					r.DropSlot(s)
				}
			}
			for _, s := range live {
				c.rack.SetRoute(s, to)
			}
			if op.auto {
				c.rebalanced += uint64(len(live))
			}
		},
	})
	return op, nil
}

// StartMigrateSlots starts one batch handoff per current owner of
// slots, each paying one freeze/drain/copy/flip for its share. Slots
// already owned by "to" are no-ops. If a batch cannot start, the ones
// already started are aborted and the error returned.
func (c *Cluster) StartMigrateSlots(slots []int, to int) ([]*Op, error) {
	if to < 0 || to >= len(c.groups) {
		return nil, fmt.Errorf("cluster: destination group %d out of range", to)
	}
	if err := checkSlots(slots); err != nil {
		return nil, err
	}
	var ops []*Op
	for _, batch := range c.byOwner(slots, to) {
		op, err := c.StartBatchMigration(batch, to)
		if err != nil {
			for _, prev := range ops {
				prev.Abort()
			}
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// byOwner splits slots by current owner, in first-seen order so runs
// stay deterministic (map-keyed grouping would randomize start order).
// Slots already owned by "to" are left out.
func (c *Cluster) byOwner(slots []int, to int) [][]int {
	var owners []int
	by := make(map[int][]int)
	for _, s := range slots {
		g := c.rack.RouteOf(s)
		if g == to {
			continue
		}
		if _, ok := by[g]; !ok {
			owners = append(owners, g)
		}
		by[g] = append(by[g], s)
	}
	out := make([][]int, len(owners))
	for i, g := range owners {
		out[i] = by[g]
	}
	return out
}

// StartSwapSlots exchanges two slot sets between their owning groups as
// two concurrent batch handoffs — slotsA move to slotsB's owner and
// vice versa — so a rebalancing round can trade a hot slot for a cold
// one without changing either group's slot occupancy. Each set must be
// non-empty and uniformly owned, and the two owners must differ.
func (c *Cluster) StartSwapSlots(slotsA, slotsB []int) (*Op, *Op, error) {
	ga, err := c.uniformOwner(slotsA)
	if err != nil {
		return nil, nil, err
	}
	gb, err := c.uniformOwner(slotsB)
	if err != nil {
		return nil, nil, err
	}
	if ga == gb {
		return nil, nil, fmt.Errorf("cluster: swap sets share owner group %d", ga)
	}
	ma, err := c.StartBatchMigration(slotsA, gb)
	if err != nil {
		return nil, nil, err
	}
	mb, err := c.StartBatchMigration(slotsB, ga)
	if err != nil {
		ma.Abort()
		return nil, nil, err
	}
	return ma, mb, nil
}

// uniformOwner returns the single group currently owning every slot of
// a swap set, or an error when the set is empty, out of range, or spans
// owners.
func (c *Cluster) uniformOwner(slots []int) (int, error) {
	if err := checkSlots(slots); err != nil {
		return 0, err
	}
	if owners := c.byOwner(slots, -1); len(owners) != 1 {
		return 0, fmt.Errorf("cluster: swap set %v does not have exactly one owner group", slots)
	}
	return c.rack.RouteOf(slots[0]), nil
}

// checkSlots rejects slot numbers outside the table.
func checkSlots(slots []int) error {
	for _, s := range slots {
		if s < 0 || s >= wire.NumSlots {
			return fmt.Errorf("cluster: slot %d out of range [0, %d)", s, wire.NumSlots)
		}
	}
	return nil
}
