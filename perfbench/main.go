// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulated Harmonia rack, checks its correctness
// gates, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ones. See README.md for the workloads and every metric.
//
// The parent process runs the workload in rounds, each a fresh child
// process of this binary (so set-up and peak memory are measured the
// way a user pays them), until -seconds have passed. All rounds of a
// run use the same seed: their modeled results must agree bit for bit,
// and a host metric is a trimmed mean over rounds. Only the first round
// runs the modeled-only open-loop sweep behind modeled_slo_mrps. Host times are scaled
// to a reference host's speed by a calibration kernel that the parent
// times next to each timed stretch of a round (see calib.go).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed claims are developed on; heldOutSeed is
	// the one a claim must also hold on (see README.md).
	defaultSeed = 1
	heldOutSeed = 7

	minRounds  = 3                 // untraced rounds per run, at least
	maxElapsed = 150 * time.Second // stop starting rounds after this
	childLimit = 120 * time.Second // one round's hard limit
)

type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"sim_ops_per_host_s", "ops/s"},
	{"peak_rss_mb", "MB"},
	{"modeled_mrps", "Mops/sim-s"},
	{"modeled_p50_us", "sim-us"},
	{"modeled_p99_us", "sim-us"},
	{"modeled_slo_mrps", "Mops/sim-s"},
	{"unanswered_share", "ratio"},
	{"retention", "ratio"},
	{"reconfig_ms", "sim-ms"},
	{"verify_s", "s"},
}

func perLayer() []metricSpec {
	ms := []metricSpec{
		{"sim.events_per_op", "events/op"},
		{"sim.host_ns_per_event", "ns"},
		{"simnet.packets_per_op", "packets/op"},
		{"simnet.replica_busy_max", "ratio"},
		{"core.fast_read_share", "ratio"},
		{"core.dirty_hit_share", "ratio"},
		{"core.write_drop_share", "ratio"},
		{"core.frontend_drops_per_op", "drops/op"},
		{"core.stray_reclaims_per_write", "reclaims/write"},
		{"cluster.retries_per_op", "retries/op"},
		{"cluster.reissues_per_op", "reissues/op"},
		{"cluster.control_ms.migrate", "sim-ms"},
		{"cluster.control_ms.add_group", "sim-ms"},
		{"cluster.control_ms.remove_group", "sim-ms"},
		{"cluster.control_ms.hotkey", "sim-ms"},
		{"rack.agreement_ms", "sim-ms"},
		{"rack.agreement_msgs", "count"},
	}
	for _, p := range []string{"queue", "service", "network", "retry", "frozen_stall"} {
		ms = append(ms, metricSpec{"phase." + p + "_p50_us", "sim-us"}, metricSpec{"phase." + p + "_p99_us", "sim-us"})
	}
	for _, l := range layers {
		if l == "runtime.maps" {
			ms = append(ms, metricSpec{"runtime.maps_cpu_share", "ratio"})
		} else {
			ms = append(ms, metricSpec{l + ".cpu_share", "ratio"})
		}
	}
	return append(ms,
		metricSpec{"runtime.gc_cpu_share", "ratio"},
		metricSpec{"runtime.allocs_per_op", "allocs/op"},
		metricSpec{"lincheck.ops_checked", "count"},
		metricSpec{"lincheck.host_s_per_kop", "s/kop"},
		metricSpec{"trace.overhead", "ratio"},
	)
}

func main() {
	name := flag.String("workload", "rack-read-open", "workload to run")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed; %d is held out for checking claims", heldOutSeed))
	seconds := flag.Int("seconds", 10, "measure for this many host seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an added traced pass")
	child := flag.Bool("child", false, "run one round in this process and print it as JSON (internal)")
	traced := flag.Bool("traced", false, "with -child: trace spans and profile the CPU")
	full := flag.Bool("full", false, "with -child: also run the modeled-only phases")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *child {
		runChild(w, *seed, *traced, *full)
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	if err := runParent(w.name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runChild(w workload, seed int64, traced, full bool) {
	r := &runner{seed: seed, traced: traced, full: full, cal: newCalibClient()}
	r.out.Modeled = make(map[string]float64)
	r.out.Layer = make(map[string]float64)
	w.run(r)
	// One reading is noisy (the host's speed wanders by about 10%
	// between back-to-back readings), so the round is scaled by the
	// median of all its readings.
	r.out.Slowness = median(r.cal.readings)
	r.out.WallLoadS = r.out.LoadHostS
	r.out.SetupS /= r.out.Slowness
	r.out.LoadHostS /= r.out.Slowness
	r.out.VerifyS /= r.out.Slowness
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.out.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.NewEncoder(os.Stdout).Encode(r.out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runRound runs one child process, serving its calibration requests,
// and decodes its result. The child is killed, and waited for, when ctx
// ends or the round overruns.
func runRound(ctx context.Context, cal *calibrator, name string, seed int64, traced, full bool) (Round, error) {
	exe, err := os.Executable()
	if err != nil {
		return Round{}, err
	}
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return Round{}, err
	}
	defer reqR.Close()
	ackR, ackW, err := os.Pipe()
	if err != nil {
		reqW.Close()
		return Round{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-traced="+strconv.FormatBool(traced), "-full="+strconv.FormatBool(full))
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.ExtraFiles = []*os.File{reqW, ackR} // the child's fds 3 and 4
	err = cmd.Start()
	reqW.Close()
	ackR.Close()
	if err != nil {
		ackW.Close()
		return Round{}, fmt.Errorf("round of %s: %w", name, err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer ackW.Close()
		serveCalibration(cal, reqR, ackW)
	}()
	err = cmd.Wait()
	<-served // the child's exit closed its end of the request pipe
	if err != nil {
		return Round{}, fmt.Errorf("round of %s: %w", name, err)
	}
	var rd Round
	if err := json.Unmarshal([]byte(out.String()), &rd); err != nil {
		return Round{}, fmt.Errorf("round of %s: %w", name, err)
	}
	return rd, nil
}

func runParent(name string, seed int64, budget time.Duration, traceMode bool) error {
	// An interrupt stops the running child before the parent exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	cal := newCalibrator()
	var plain, traced []Round
	for i := 0; ; i++ {
		tr := traceMode && i%2 == 1
		rd, err := runRound(ctx, cal, name, seed, tr, i == 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d traced=%v slowness=%.3f ops_per_host_s=%.0f unscaled=%.0f setup_s=%.4f\n",
			i, tr, rd.Slowness, opsPerHostS(rd), float64(rd.Counts.Ops)/rd.WallLoadS, rd.SetupS)
		if tr {
			traced = append(traced, rd)
		} else {
			plain = append(plain, rd)
		}
		enough := len(plain) >= minRounds && (!traceMode || len(traced) >= len(plain))
		if enough && (time.Since(start) >= budget || time.Since(start) >= maxElapsed) {
			break
		}
	}

	var failures []string
	var attempted, failed uint64
	for _, rd := range append(append([]Round(nil), plain...), traced...) {
		attempted += rd.Issued
		if len(rd.Failures) > 0 {
			failed += rd.Issued
			failures = append(failures, rd.Failures...)
		}
	}
	for i := 1; i < len(plain); i++ {
		if !sameModel(plain[0], plain[i]) {
			failures = append(failures, fmt.Sprintf("round %d's modeled results differ from round 0's at the same seed", i))
			failed += plain[i].Issued
		}
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: gate failed: %s\n", f)
	}

	specs := endToEnd
	values := endToEndValues(plain)
	if traceMode {
		specs = perLayer()
		values = perLayerValues(plain, traced)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(failures) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("# %s seed=%d rounds=%d traced=%d host=%.1fs slowness=%.3f unscaled_ops_per_host_s=%.0f\n",
		name, seed, len(plain), len(traced), time.Since(start).Seconds(),
		trimmedOf(plain, func(rd Round) float64 { return rd.Slowness }),
		trimmedOf(plain, func(rd Round) float64 { return float64(rd.Counts.Ops) / rd.WallLoadS }))
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return errors.New("no value for metric " + m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("%-34s %16.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// sameModel reports whether two rounds at the same seed produced the
// same simulated results: every modeled metric (but the sweep's, which
// only the first round has), every simulated layer value and every
// window count except host allocations.
func sameModel(a, b Round) bool {
	ca, cb := a.Counts, b.Counts
	ca.Mallocs, cb.Mallocs = 0, 0
	ma, mb := maps.Clone(a.Modeled), maps.Clone(b.Modeled)
	delete(ma, "modeled_slo_mrps")
	delete(mb, "modeled_slo_mrps")
	return reflect.DeepEqual(ma, mb) && reflect.DeepEqual(a.Layer, b.Layer) &&
		ca == cb && a.LincheckOps == b.LincheckOps && a.Issued == b.Issued
}

// trimmedOf is the mean of f over rounds after dropping the highest and
// the lowest tenth, rounded up: a run's host value. Fresh processes of
// the same round spread by about 10%, near-normally; the trimmed mean
// averages that out better than the median while still dropping a
// round that a neighbour's burst slowed. With three or four rounds it
// is the median.
func trimmedOf(rounds []Round, f func(Round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, rd := range rounds {
		xs[i] = f(rd)
	}
	slices.Sort(xs)
	k := (len(xs) + 9) / 10
	if len(xs) <= 2*k {
		return median(xs)
	}
	return sum(xs[k:len(xs)-k]) / float64(len(xs)-2*k)
}

func opsPerHostS(rd Round) float64 { return float64(rd.Counts.Ops) / rd.LoadHostS }

func endToEndValues(plain []Round) map[string]float64 {
	v := map[string]float64{
		"setup_s":            trimmedOf(plain, func(rd Round) float64 { return rd.SetupS }),
		"sim_ops_per_host_s": trimmedOf(plain, opsPerHostS),
		"peak_rss_mb":        trimmedOf(plain, func(rd Round) float64 { return rd.PeakRSSMB }),
		"verify_s":           trimmedOf(plain, func(rd Round) float64 { return rd.VerifyS }),
	}
	for k, x := range plain[0].Modeled {
		v[k] = x
	}
	return v
}

func perLayerValues(plain, traced []Round) map[string]float64 {
	c := plain[0].Counts
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	reads := c.FastReads + c.NormalReads
	v := map[string]float64{
		"sim.events_per_op": ratio(c.Events, c.Ops),
		"sim.host_ns_per_event": trimmedOf(plain, func(rd Round) float64 {
			return rd.LoadHostS * 1e9 / float64(rd.Counts.CallEvents)
		}),
		"simnet.packets_per_op":         ratio(c.Sent, c.Ops),
		"simnet.replica_busy_max":       c.ReplicaBusyMax,
		"core.fast_read_share":          ratio(c.FastReads, reads),
		"core.dirty_hit_share":          ratio(c.DirtyHits, reads),
		"core.write_drop_share":         ratio(c.WritesDropped, c.Writes+c.WritesDropped),
		"core.frontend_drops_per_op":    ratio(c.FrontDrops, c.Ops),
		"core.stray_reclaims_per_write": ratio(c.StrayReclaims, c.Writes),
		"cluster.retries_per_op":        ratio(c.Retries, c.Ops),
		"cluster.reissues_per_op":       ratio(c.Reissues, c.Ops),
		"rack.agreement_msgs":           float64(c.AgreementMsgs),
		"runtime.allocs_per_op": trimmedOf(plain, func(rd Round) float64 {
			return ratio(rd.Counts.Mallocs, rd.Counts.Ops)
		}),
		"lincheck.ops_checked": float64(plain[0].LincheckOps),
		"lincheck.host_s_per_kop": trimmedOf(plain, func(rd Round) float64 {
			return rd.VerifyS / (float64(rd.LincheckOps) / 1e3)
		}),
		"trace.overhead": trimmedOf(plain, opsPerHostS)/trimmedOf(traced, opsPerHostS) - 1,
	}
	for k, x := range plain[0].Layer {
		v[k] = x
	}
	// Phases need span sampling: they come from the traced pass.
	for k, x := range traced[0].Layer {
		if len(k) > 6 && k[:6] == "phase." {
			v[k] = x
		}
	}
	var prof Rollup
	for _, rd := range traced {
		if rd.Profile != nil {
			prof.Add(*rd.Profile)
		}
	}
	for _, l := range layers {
		if l == "runtime.maps" {
			v["runtime.maps_cpu_share"] = prof.Share(l)
		} else {
			v[l+".cpu_share"] = prof.Share(l)
		}
	}
	v["runtime.gc_cpu_share"] = ratio(uint64(prof.GC), uint64(prof.Total))
	return v
}
