package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/sim"
	"harmonia/internal/trace"
	"harmonia/internal/wire"
)

// Round is everything one workload run measures, in one fresh process.
// Modeled and Layer values are simulated and bit-identical at a fixed
// seed; the *S fields, PeakRSSMB and Profile are host measurements.
// SetupS, LoadHostS and VerifyS are host seconds scaled to the
// reference host's speed: divided by Slowness, the median of the
// round's calibration readings (calib.go). WallLoadS is LoadHostS
// unscaled.
type Round struct {
	SetupS      float64            `json:"setup_s"`
	LoadHostS   float64            `json:"load_host_s"`
	WallLoadS   float64            `json:"wall_load_s"`
	Slowness    float64            `json:"slowness"`
	Issued      uint64             `json:"issued"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	VerifyS     float64            `json:"verify_s"`
	LincheckOps uint64             `json:"lincheck_ops"`
	Modeled     map[string]float64 `json:"modeled"`
	Layer       map[string]float64 `json:"layer"`
	Counts      windowCounts       `json:"counts"`
	Profile     *Rollup            `json:"profile,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
}

// Fixed shape of every workload's phases.
const (
	warmup = 2 * time.Millisecond
	window = 10 * time.Millisecond
	bucket = 2 * time.Millisecond
	// sloLimit is the modeled p99 an offered rate must stay under to
	// count toward modeled_slo_mrps: about 3x the unloaded p99 of the
	// racks here (~65-70 sim-us).
	sloLimit = 200 * time.Microsecond
	// traceEvery samples one op in this many for the phase breakdown
	// in the traced pass.
	traceEvery = 16
	// profileHz is the CPU profile's sampling rate in the traced pass.
	profileHz = 500
	// The lincheck pass is repeated so verify_s is a median.
	verifyPasses    = 3
	maxVerifyPasses = 101
	verifyWork      = 200 * time.Millisecond
)

type workload struct {
	name string
	run  func(r *runner)
}

var workloads = []workload{
	{"rack-read-open", rackReadOpen},
	{"proto-write-closed", protoWriteClosed},
	{"chaos-control", chaosControl},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner carries one round's state through a workload's phases.
type runner struct {
	seed   int64
	traced bool
	full   bool // also run the modeled-only sweep (sweep)
	cal    *calibClient
	racks  int64 // racks built so far; offsets each rack's seed
	out    Round
}

func (r *runner) fail(format string, args ...any) {
	r.out.Failures = append(r.out.Failures, fmt.Sprintf(format, args...))
}

// build assembles a rack and preloads its key set; the host time of
// both is set-up time. Main-phase racks carry span sampling in the
// traced pass.
func (r *runner) build(cfg cluster.Config, keys int, main bool) *cluster.Cluster {
	t0 := time.Now()
	c := r.rack(cfg, keys, main)
	r.out.SetupS += time.Since(t0).Seconds()
	return c
}

func (r *runner) rack(cfg cluster.Config, keys int, main bool) *cluster.Cluster {
	cfg.Seed = r.seed*1000 + r.racks
	r.racks++
	if main && r.traced {
		cfg.Trace = trace.Config{SampleEvery: traceEvery}
	}
	c := cluster.New(cfg)
	c.Preload(keys)
	return c
}

// load runs one load call. A main-phase call is what the end-to-end
// host metrics and the layer counters describe: its host time, its
// window counters and, in the traced pass, its CPU profile.
func (r *runner) load(c *cluster.Cluster, spec cluster.LoadSpec, main bool) cluster.Report {
	if !main {
		return c.RunLoad(spec)
	}
	var before, start, end snapshot
	before = takeSnapshot(c, spec.Duration)
	c.Engine().After(spec.Warmup, func() { start = takeSnapshot(c, spec.Duration) })
	r.cal.read()
	stop := r.profile()
	t0 := time.Now()
	rep := c.RunLoad(spec)
	r.out.LoadHostS += time.Since(t0).Seconds()
	stop()
	r.cal.read()
	end = takeSnapshot(c, spec.Duration)
	w := diffSnapshots(start, end)
	w.CallEvents = end.events - before.events
	w.Ops = rep.Ops
	w.Retries = rep.Retries
	w.Reissues = rep.Dropped
	r.out.Counts.add(w)
	r.out.Issued += rep.Ops + rep.Unanswered
	return rep
}

// profile starts the CPU profile of a traced main phase and returns
// the function that stops it and folds it into the round's rollup.
func (r *runner) profile() (stop func()) {
	if !r.traced {
		return func() {}
	}
	var buf bytes.Buffer
	// pprof's default 100 Hz gives a main phase of a few tenths of a
	// second too few samples. A rate set first wins; StartCPUProfile
	// then only warns on stderr that it cannot change it.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		r.fail("cpu profile: %v", err)
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		roll, err := RollupProfile(buf.Bytes())
		if err != nil {
			r.fail("cpu profile: %v", err)
			return
		}
		if r.out.Profile == nil {
			r.out.Profile = &Rollup{}
		}
		r.out.Profile.Add(roll)
	}
}

// reference records the modeled end-to-end metrics of a workload's
// reference load point. retention is the worst full completion bucket
// during [from, to) of the window ÷ the median bucket before from; with
// no disruption (from = 0) it is the worst bucket ÷ the median of all.
func (r *runner) reference(rep cluster.Report, from, to time.Duration) {
	m := r.out.Modeled
	m["modeled_mrps"] = rep.Throughput / 1e6
	m["modeled_p50_us"] = quantileUS(rep.Latency, 0.50)
	m["modeled_p99_us"] = quantileUS(rep.Latency, 0.99)
	m["unanswered_share"] = float64(rep.Unanswered) / float64(rep.Ops+rep.Unanswered)
	m["retention"] = retention(rep, from, to)
	if bd := rep.LatencyBreakdown; bd != nil {
		for p := trace.Phase(0); p < trace.NumPhases; p++ {
			h := bd.Overall.Phase(p)
			name := phaseNames[p]
			r.out.Layer["phase."+name+"_p50_us"] = quantileUS(h, 0.50)
			r.out.Layer["phase."+name+"_p99_us"] = quantileUS(h, 0.99)
		}
	}
}

var phaseNames = map[trace.Phase]string{
	trace.PhaseQueue:       "queue",
	trace.PhaseService:     "service",
	trace.PhaseNetwork:     "network",
	trace.PhaseRetry:       "retry",
	trace.PhaseFrozenStall: "frozen_stall",
}

func retention(rep cluster.Report, from, to time.Duration) float64 {
	full := int(rep.Duration / bucket) // a completion at the cut-off opens a partial bucket
	counts := make([]float64, full)
	for _, p := range rep.Series.Points() {
		if i := int(p.Start / bucket); i >= 0 && i < full {
			counts[i] = float64(p.Count)
		}
	}
	base, during := counts, counts
	if from > 0 {
		base = counts[:int(from/bucket)]
		during = counts[int(from/bucket):min(full, int((to+bucket-1)/bucket))]
	}
	if len(base) == 0 || len(during) == 0 {
		return 0
	}
	return slices.Min(during) / median(base)
}

// sloSweep takes the open-loop runs at fixed offered rates and returns
// the completed MRPS at the highest rate whose modeled p99 stays within
// sloLimit with no growing backlog: completions keep up with the
// offered rate and under 1% of issued ops are still queued at the
// cut-off. For rack-read-open the sweep is the main phase.
func sloSweep(points []cluster.Report, rates []float64) float64 {
	best := 0.0
	for i, rep := range points {
		issued := rep.Ops + rep.Unanswered
		ok := quantileUS(rep.Latency, 0.99) <= float64(sloLimit)/1e3 &&
			rep.Throughput >= 0.97*rates[i] &&
			float64(rep.Unanswered) <= 0.01*float64(issued)
		if ok {
			best = rep.Throughput / 1e6
		}
	}
	return best
}

// sweep runs the open-loop points behind modeled_slo_mrps on fresh
// racks of the given shape. Its results are modeled only, the same in
// every round at a seed, so only a run's first (full) round runs it,
// untimed; workloads run it last, so the racks before it get the same
// seeds either way.
func (r *runner) sweep(cfg func() cluster.Config, keys int, writes float64, rates []float64) {
	if !r.full {
		return
	}
	points := make([]cluster.Report, len(rates))
	for i, rate := range rates {
		c := r.rack(cfg(), keys, false)
		points[i] = c.RunLoad(openSpec(rate, keys, writes, cluster.Uniform))
	}
	r.out.Modeled["modeled_slo_mrps"] = sloSweep(points, rates)
}

func openSpec(rate float64, keys int, writes float64, dist cluster.Dist) cluster.LoadSpec {
	return cluster.LoadSpec{
		Mode: cluster.Open, Rate: rate, Duration: window, Warmup: warmup,
		WriteRatio: writes, Keys: keys, Dist: dist, PinGroups: true, Bucket: bucket,
	}
}

func closedSpec(clients, keys int, writes float64, dist cluster.Dist) cluster.LoadSpec {
	return cluster.LoadSpec{
		Mode: cluster.Closed, Clients: clients, Duration: window, Warmup: warmup,
		WriteRatio: writes, Keys: keys, Dist: dist, PinGroups: true, Bucket: bucket,
	}
}

// chaotic turns a rack into the recorded phases' rack: every op goes
// into the history, and the network drops and reorders 1% of messages.
func chaotic(cfg cluster.Config) cluster.Config {
	cfg.RecordHistory = true
	cfg.DropProb, cfg.ReorderProb = 0.01, 0.01
	return cfg
}

// --- rack-read-open ---

// figPRack is the Fig P rack: 4 switches, 8 capacity-weighted groups.
func figPRack() cluster.Config {
	return cluster.Config{
		UseHarmonia: true, Switches: 4,
		GroupSpecs: []cluster.GroupSpec{
			{Protocol: cluster.Chain, Replicas: 5},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.NOPaxos, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.NOPaxos, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
		},
	}
}

const (
	// figPCapacity is Fig P's calibrated aggregate: 8 groups of
	// spread-read 3-replica chains at about 0.92 MRPS per replica.
	figPCapacity = 8 * 3 * 0.92e6
	figPKeys     = 100000
)

func rackReadOpen(r *runner) {
	fracs := []float64{0.3, 0.5, 0.6, 0.8} // Fig P's knee is at 0.7
	const ref = 1
	rates := make([]float64, len(fracs))
	points := make([]cluster.Report, len(fracs))
	for i, f := range fracs {
		rates[i] = f * figPCapacity
		c := r.build(figPRack(), figPKeys, true)
		points[i] = r.load(c, openSpec(rates[i], figPKeys, 0.05, cluster.Zipf09), true)
		checkOfferedSplit(r, c, points[i])
		if i == ref {
			r.reference(points[i], 0, 0)
		}
	}
	r.out.Modeled["modeled_slo_mrps"] = sloSweep(points, rates)
	// The cut-off floor of unanswered ops is a few hundred per point, so
	// the share pools every point below the knee to steady it.
	var unanswered, issued uint64
	for _, p := range points[:len(points)-1] {
		unanswered += p.Unanswered
		issued += p.Ops + p.Unanswered
	}
	r.out.Modeled["unanswered_share"] = float64(unanswered) / float64(issued)

	// Recorded phase: the same rack and mix, closed loop under 1% loss
	// and reordering, with one single-source batch migration; every
	// group's history is checked.
	c := r.build(chaotic(figPRack()), figPKeys, false)
	ctl := newControl(c, r.seed)
	ctl.migrate(4*time.Millisecond, 1, 3, 4)
	r.recorded(c, ctl, closedSpec(64, figPKeys, 0.05, cluster.Zipf09), false, nil)
}

// checkOfferedSplit gates a sharded open-loop run: each group's share
// of the offered ops must follow its capacity weight.
func checkOfferedSplit(r *runner, c *cluster.Cluster, rep cluster.Report) {
	w := c.GroupWeights()
	var total, sumW float64
	for g, n := range rep.GroupOffered {
		total += float64(n)
		sumW += w[g]
	}
	if len(rep.GroupOffered) != len(w) || total == 0 {
		r.fail("offered split missing: %v", rep.GroupOffered)
		return
	}
	for g, n := range rep.GroupOffered {
		want := total * w[g] / sumW
		if d := math.Abs(float64(n) - want); d > 4*math.Sqrt(want)+0.01*want {
			r.fail("group %d offered %d ops, weight share is %.0f", g, n, want)
		}
	}
}

// --- proto-write-closed ---

// protoRack is one switch over five 3-replica groups, one per protocol.
// CRAQ runs unassisted: the in-workload protocol-level baseline.
func protoRack() cluster.Config {
	return cluster.Config{
		UseHarmonia: true,
		GroupSpecs: []cluster.GroupSpec{
			{Protocol: cluster.PB, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.CRAQ, Replicas: 3},
			{Protocol: cluster.VR, Replicas: 3},
			{Protocol: cluster.NOPaxos, Replicas: 3},
		},
	}
}

const (
	protoKeys    = 2000
	protoClients = 512 // saturates: 256 clients already reach capacity
	protoWrites  = 0.3
	// protoWindow is the main phase's window: longer than the shared
	// one, so its host time (about a second) outweighs set-up and the
	// unmeasured phases in each round.
	protoWindow = 40 * time.Millisecond
)

func protoWriteClosed(r *runner) {
	c := r.build(protoRack(), protoKeys, true)
	spec := closedSpec(protoClients, protoKeys, protoWrites, cluster.Uniform)
	spec.Duration = protoWindow
	rep := r.load(c, spec, true)
	for g, n := range rep.GroupOps {
		if n == 0 {
			r.fail("group %d (%v) completed no ops", g, c.SpecOf(g).Protocol)
		}
	}
	r.reference(rep, 0, 0)

	c = r.build(chaotic(protoRack()), protoKeys, false)
	ctl := newControl(c, r.seed)
	ctl.migrate(4*time.Millisecond, 1, 3, 8) // Chain -> VR
	r.recorded(c, ctl, closedSpec(64, protoKeys, protoWrites, cluster.Uniform), false, nil)

	r.sweep(protoRack, protoKeys, protoWrites, []float64{2.5e6, 3.5e6, 4.5e6, 5.5e6}) // knee near 5e6
}

// --- chaos-control ---

// chaosRack is 2 switches over four 3-replica groups.
func chaosRack() cluster.Config {
	return cluster.Config{
		UseHarmonia: true, Switches: 2, HotKeys: true,
		GroupSpecs: []cluster.GroupSpec{
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.NOPaxos, Replicas: 3},
			{Protocol: cluster.VR, Replicas: 3},
			{Protocol: cluster.PB, Replicas: 3},
		},
	}
}

const (
	chaosKeys    = 4096
	chaosClients = 512
	chaosWrites  = 0.2
	chaosWindow  = 40 * time.Millisecond
	chaosHotKey  = "obj00000007"
)

func chaosControl(r *runner) {
	c := r.build(chaotic(chaosRack()), chaosKeys, true)
	ctl := newControl(c, r.seed)
	ctl.promote(10*time.Millisecond, chaosHotKey)
	ctl.demote(13*time.Millisecond, chaosHotKey)
	ctl.crash(16*time.Millisecond, 1)
	ctl.reactivate(17*time.Millisecond, 1)
	ctl.addGroup(20*time.Millisecond, cluster.GroupSpec{Protocol: cluster.Chain, Replicas: 3})
	ctl.removeGroup(26*time.Millisecond, 3)
	ctl.migrate(32*time.Millisecond, 0, 1, 8)
	spec := closedSpec(chaosClients, chaosKeys, chaosWrites, cluster.Uniform)
	spec.Duration = chaosWindow
	r.recorded(c, ctl, spec, true, []string{chaosHotKey})

	r.sweep(chaosRack, chaosKeys, chaosWrites, []float64{2e6, 3.5e6, 4.5e6, 6e6}) // knee near 5e6
}

// recorded runs a history-recording phase with a control-plane
// schedule, lets it settle, gates every control op and every lincheck
// verdict, and records reconfig_ms and verify_s. When main, the phase
// is also the workload's reference point and its verification is part
// of the profiled work.
func (r *runner) recorded(c *cluster.Cluster, ctl *control, spec cluster.LoadSpec, main bool, keys []string) {
	rep := r.load(c, spec, main)
	c.RunFor(30 * time.Millisecond) // settle: agreements, drains, retries
	ctl.resolve(r)
	if main {
		// Window-relative: the schedule counts from the load call.
		from := time.Duration(ctl.first-ctl.base) - spec.Warmup
		r.reference(rep, from, time.Duration(ctl.last-ctl.base)-spec.Warmup)
	}
	for k, v := range ctl.layer() {
		r.out.Layer[k] = v
	}
	r.out.Modeled["reconfig_ms"] = float64(ctl.last-ctl.first) / 1e6

	stop := func() {}
	if main {
		stop = r.profile()
	}
	// verify_s is the median of identical passes, each from a freshly
	// collected heap: at least verifyPasses, and more while they add
	// up to under verifyWork, so a small history is timed many times.
	var times []float64
	r.cal.read()
	for i := 0; i < verifyPasses || (sum(times) < verifyWork.Seconds() && i < maxVerifyPasses); i++ {
		runtime.GC()
		t0 := time.Now()
		for g := 0; g < c.Groups(); g++ {
			if res := c.CheckLinearizabilityGroup(g); i == 0 && (!res.Decided || !res.Ok) {
				r.fail("lincheck group %d: decided=%v ok=%v %s", g, res.Decided, res.Ok, res.Reason)
			}
		}
		for _, k := range keys {
			if res := c.CheckLinearizabilityKey(k); i == 0 && (!res.Decided || !res.Ok) {
				r.fail("lincheck key %s: decided=%v ok=%v %s", k, res.Decided, res.Ok, res.Reason)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	stop()
	r.out.VerifyS = median(times)
	r.cal.read()
	r.out.LincheckOps = uint64(len(c.History()))
}

// --- control-plane schedule ---

// control runs control-plane calls at fixed simulated times and, once
// the run settles, reads each call's completion from the flight
// recorder.
type control struct {
	c           *cluster.Cluster
	ops         []*ctlOp
	base        sim.Time // when the schedule was armed: the load call's start
	rng         *rand.Rand
	first, last sim.Time // first call, last completion
}

type ctlOp struct {
	kind  string
	at    sim.Time // when the call was made
	end   sim.Time // when it completed; 0 until resolved
	err   error
	mig   *cluster.Migration
	rc    *cluster.Reconfig
	slots []int
	group int
	obj   wire.ObjectID
	sw    int
	ok    bool // demote's verdict
}

// newControl arms a schedule; call it right before the load call its
// times count from. seed drives the schedule's own choices (which
// slots a migration moves), so they are inputs made from the workload
// seed like the traffic.
func newControl(c *cluster.Cluster, seed int64) *control {
	return &control{c: c, base: c.Engine().Now(), rng: rand.New(rand.NewSource(seed))}
}

func (k *control) at(d time.Duration, kind string, call func(op *ctlOp)) {
	op := &ctlOp{kind: kind}
	k.ops = append(k.ops, op)
	k.c.Engine().After(d, func() {
		op.at = k.c.Engine().Now()
		call(op)
	})
}

// migrate moves n slots of group from, picked at random, to group to
// as one batch.
func (k *control) migrate(d time.Duration, from, to, n int) {
	k.at(d, "migrate", func(op *ctlOp) {
		var owned []int
		for slot, g := range k.c.SlotTable() {
			if g == from {
				owned = append(owned, slot)
			}
		}
		for _, i := range k.rng.Perm(len(owned))[:min(n, len(owned))] {
			op.slots = append(op.slots, owned[i])
		}
		op.mig, op.err = k.c.StartBatchMigration(op.slots, to)
	})
}

func (k *control) promote(d time.Duration, key string) {
	k.at(d, "hotkey", func(op *ctlOp) {
		op.obj = wire.HashKey(key)
		op.err = k.c.PromoteKey(key)
	})
}

func (k *control) demote(d time.Duration, key string) {
	k.at(d, "demote", func(op *ctlOp) { op.ok = k.c.DemoteKey(key) })
}

func (k *control) addGroup(d time.Duration, spec cluster.GroupSpec) {
	k.at(d, "add_group", func(op *ctlOp) { op.group, op.rc, op.err = k.c.AddGroup(spec) })
}

func (k *control) removeGroup(d time.Duration, g int) {
	k.at(d, "remove_group", func(op *ctlOp) {
		op.group = g
		op.rc, op.err = k.c.StartRemoveGroup(g)
	})
}

func (k *control) crash(d time.Duration, sw int) {
	k.at(d, "crash", func(op *ctlOp) { op.sw, op.err = sw, k.c.CrashSwitch(sw) })
}

func (k *control) reactivate(d time.Duration, sw int) {
	k.at(d, "reactivate", func(op *ctlOp) { op.sw, op.err = sw, k.c.ReactivateSwitch(sw) })
}

// resolve finds each op's completion in the flight recorder and gates
// that every op was made, succeeded and completed:
//   - migrate: the first route flip of each of its slots (Done, not
//     aborted);
//   - hotkey: the first holder refresh of the promoted key;
//   - demote: the call itself (synchronous);
//   - add_group: the first flip of each slot seeded into the new group;
//   - remove_group: the topology epoch retiring the group;
//   - crash: the call itself; reactivate: the switch's §5.3 agreement.
func (k *control) resolve(r *runner) {
	evs := k.c.Events()
	if n := k.c.DroppedEvents(); n > 0 {
		r.fail("flight recorder dropped %d events", n)
	}
	for _, op := range k.ops {
		if op.at == 0 {
			r.fail("%s: never called", op.kind)
			continue
		}
		if op.err != nil {
			r.fail("%s: %v", op.kind, op.err)
			continue
		}
		switch op.kind {
		case "migrate":
			if !op.mig.Done() || op.mig.Aborted() {
				r.fail("migrate: done=%v aborted=%v", op.mig.Done(), op.mig.Aborted())
			}
			op.end = flipped(evs, op.at, op.slots)
		case "hotkey":
			op.end = firstEvent(evs, op.at, func(e trace.Event) bool {
				return e.Kind == trace.EvHotRefresh && e.Arg == uint64(op.obj)
			})
		case "demote":
			if !op.ok {
				r.fail("demote: key was not promoted")
			}
			op.end = op.at
		case "add_group", "remove_group":
			if !op.rc.Done() || op.rc.Err() != nil {
				r.fail("%s %d: done=%v err=%v", op.kind, op.group, op.rc.Done(), op.rc.Err())
			}
			if op.kind == "add_group" {
				// The seeding migrations start at the call itself.
				var seeded []int
				for _, e := range evs {
					if e.At == op.at && e.Kind == trace.EvMigrationStart && int(e.Arg) == op.group {
						seeded = append(seeded, int(e.Slot))
					}
				}
				op.end = flipped(evs, op.at, seeded)
			} else {
				op.end = firstEvent(evs, op.at, func(e trace.Event) bool {
					return e.Kind == trace.EvTopoEpoch && int(e.Group) == op.group
				})
			}
		case "crash":
			op.end = op.at
		case "reactivate":
			op.end = firstEvent(evs, op.at, func(e trace.Event) bool {
				return e.Kind == trace.EvAgreement && int(e.Switch) == op.sw
			})
		}
		if op.end == 0 {
			r.fail("%s: no completion in the flight recorder", op.kind)
		}
	}
	for i, op := range k.ops {
		if i == 0 || op.at < k.first {
			k.first = op.at
		}
		k.last = max(k.last, op.end)
	}
}

// layer reports the per-op control latencies and agreement cost.
func (k *control) layer() map[string]float64 {
	m := map[string]float64{
		"cluster.control_ms.migrate":      0,
		"cluster.control_ms.add_group":    0,
		"cluster.control_ms.remove_group": 0,
		"cluster.control_ms.hotkey":       0,
		"rack.agreement_ms":               0,
	}
	for _, op := range k.ops {
		if op.end == 0 {
			continue
		}
		ms := float64(op.end-op.at) / 1e6
		switch op.kind {
		case "migrate", "add_group", "remove_group", "hotkey":
			m["cluster.control_ms."+op.kind] = ms
		case "reactivate":
			m["rack.agreement_ms"] = ms
		}
	}
	return m
}

func firstEvent(evs []trace.Event, after sim.Time, match func(trace.Event) bool) sim.Time {
	for _, e := range evs {
		if e.At >= after && match(e) {
			return e.At
		}
	}
	return 0
}

// flipped returns when every one of slots had its first route flip
// after the given time: a batch handoff's completion. Later flips of
// the same slots belong to later operations.
func flipped(evs []trace.Event, after sim.Time, slots []int) sim.Time {
	left := make(map[int]bool, len(slots))
	for _, s := range slots {
		left[s] = true
	}
	for _, e := range evs {
		if len(left) == 0 {
			break
		}
		if e.At >= after && e.Kind == trace.EvMigrationFlip && left[int(e.Slot)] {
			delete(left, int(e.Slot))
			if len(left) == 0 {
				return e.At
			}
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
