package main

import (
	"runtime"
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/core"
	"harmonia/internal/simnet"
)

// snapshot holds the cluster's cumulative public counters at one
// instant. Two snapshots taken at the warmup boundary and when RunLoad
// returns bracket the measurement window exactly, so per-op ratios
// divide window counts by window ops instead of mixing in warmup.
type snapshot struct {
	events  uint64
	sent    uint64
	mallocs uint64
	// sched is keyed by scheduler identity: a switch replacement swaps
	// a group's scheduler for a fresh one, and an elastic removal
	// retires it, so both ends of the window are read per object.
	sched   map[*core.Scheduler]core.Stats
	fronts  []core.FrontendStats
	busy    map[*simnet.Node]float64 // Utilization(window) at the snapshot
	revokes uint64                   // rack agreement messages, all switches
}

func takeSnapshot(c *cluster.Cluster, window time.Duration) snapshot {
	s := snapshot{
		events: c.Engine().Processed,
		sent:   c.Network().Sent,
		sched:  make(map[*core.Scheduler]core.Stats),
		busy:   make(map[*simnet.Node]float64),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	for g := 0; g < c.Groups(); g++ {
		if sc := c.GroupScheduler(g); sc != nil {
			s.sched[sc] = sc.Stats
		}
		for i := 0; i < c.SpecOf(g).Replicas; i++ {
			if nd := c.Network().Node(c.GroupReplicaAddr(g, i)); nd != nil {
				// Utilization divides cumulative busy time by a fixed
				// elapsed time, so the difference of two readings with
				// the same argument is the window's own utilization.
				s.busy[nd] = nd.Utilization(window)
			}
		}
	}
	for sw := 0; sw < c.Switches(); sw++ {
		s.fronts = append(s.fronts, c.FrontendOf(sw).Stats)
		st := c.Rack().Stats(sw)
		s.revokes += st.AgreementMsgs()
	}
	return s
}

// windowCounts is the difference of two snapshots: the work each layer
// did inside one measurement window.
type windowCounts struct {
	Ops            uint64  `json:"ops"`
	Events         uint64  `json:"events"`
	CallEvents     uint64  `json:"call_events"` // warmup included: pairs with the load call's host time
	Sent           uint64  `json:"sent"`
	Mallocs        uint64  `json:"mallocs"`
	Writes         uint64  `json:"writes"`
	WritesDropped  uint64  `json:"writes_dropped"`
	FastReads      uint64  `json:"fast_reads"`
	NormalReads    uint64  `json:"normal_reads"`
	DirtyHits      uint64  `json:"dirty_hits"`
	StrayReclaims  uint64  `json:"stray_reclaims"`
	FrontDrops     uint64  `json:"front_drops"`
	AgreementMsgs  uint64  `json:"agreement_msgs"`
	Retries        uint64  `json:"retries"`
	Reissues       uint64  `json:"reissues"`
	ReplicaBusyMax float64 `json:"replica_busy_max"`
}

func (w *windowCounts) add(o windowCounts) {
	w.Ops += o.Ops
	w.Events += o.Events
	w.CallEvents += o.CallEvents
	w.Sent += o.Sent
	w.Mallocs += o.Mallocs
	w.Writes += o.Writes
	w.WritesDropped += o.WritesDropped
	w.FastReads += o.FastReads
	w.NormalReads += o.NormalReads
	w.DirtyHits += o.DirtyHits
	w.StrayReclaims += o.StrayReclaims
	w.FrontDrops += o.FrontDrops
	w.AgreementMsgs += o.AgreementMsgs
	w.Retries += o.Retries
	w.Reissues += o.Reissues
	w.ReplicaBusyMax = max(w.ReplicaBusyMax, o.ReplicaBusyMax)
}

func diffSnapshots(a, b snapshot) windowCounts {
	w := windowCounts{
		Events:        b.events - a.events,
		Sent:          b.sent - a.sent,
		Mallocs:       b.mallocs - a.mallocs,
		AgreementMsgs: b.revokes - a.revokes,
	}
	for sc, end := range b.sched {
		w.addSched(end, a.sched[sc]) // a scheduler born in the window starts at zero
	}
	for sc, start := range a.sched {
		if _, ok := b.sched[sc]; !ok {
			w.addSched(sc.Stats, start) // replaced or retired in the window
		}
	}
	for i := range b.fronts {
		e, s := b.fronts[i], a.fronts[i]
		w.FrontDrops += (e.FrozenDrops + e.StalledDrops + e.MisroutedDrops) -
			(s.FrozenDrops + s.StalledDrops + s.MisroutedDrops)
	}
	for nd, u := range b.busy {
		w.ReplicaBusyMax = max(w.ReplicaBusyMax, u-a.busy[nd])
	}
	return w
}

func (w *windowCounts) addSched(e, s core.Stats) {
	w.Writes += e.Writes - s.Writes
	w.WritesDropped += e.WritesDropped - s.WritesDropped
	w.FastReads += e.FastReads - s.FastReads
	w.NormalReads += e.NormalReads - s.NormalReads
	w.DirtyHits += e.DirtyHits - s.DirtyHits
	w.StrayReclaims += (e.LazyCleanups + e.SweptStale) - (s.LazyCleanups + s.SweptStale)
}
