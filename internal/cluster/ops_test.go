package cluster

import (
	"testing"

	"harmonia/internal/wire"
)

// Blocking shorthands for the tests: start an operation, then Wait.

func (c *Cluster) migrate(slots []int, to int) error {
	ops, err := c.StartMigrateSlots(slots, to)
	if err != nil {
		return err
	}
	return c.Wait(ops...)
}

func (c *Cluster) swap(slotsA, slotsB []int) error {
	ma, mb, err := c.StartSwapSlots(slotsA, slotsB)
	if err != nil {
		return err
	}
	return c.Wait(ma, mb)
}

func (c *Cluster) addGroup(spec GroupSpec) (int, error) {
	g, op, err := c.AddGroup(spec)
	if err != nil {
		return 0, err
	}
	return g, c.Wait(op)
}

func (c *Cluster) await(op *Op, err error) error {
	if err != nil {
		return err
	}
	return c.Wait(op)
}

// assertSettled is the liveness oracle of the chaos matrices, checked
// once the chaos is over and the run has settled: no slot is left
// frozen, every operation started has settled (Done or Aborted), and no
// promoted key is left with an invalid holder copy.
func assertSettled(t *testing.T, c *Cluster) {
	t.Helper()
	for slot := 0; slot < wire.NumSlots; slot++ {
		if c.rack.Frozen(slot) {
			t.Fatalf("slot %d left frozen", slot)
		}
	}
	for _, op := range c.inflight {
		t.Fatalf("%v never settled", op)
	}
	for _, id := range c.hotKeyOrder {
		st := c.hotKeys[id]
		if hk, ok := c.rack.Front(st.sw).Promoted(id); ok && hk.InvalidCount() > 0 {
			t.Fatalf("promoted key %#x left with %d invalid holder(s)", uint64(id), hk.InvalidCount())
		}
	}
}
