package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Host-speed calibration.
//
// The host metrics are wall-clock times on a machine whose speed
// drifts. On a 2-vCPU VM of a shared Xeon host the same round of
// proto-write-closed read from 150k to 280k simulated ops per host
// second within a few minutes, and the process's CPU time tracked its
// wall time, so the drift is the host itself (shared caches and
// memory), not time stolen from the VM: neither longer runs nor CPU
// time remove it. So right before and right after each timed stretch
// (a main load call, the lincheck passes) a round has a fixed
// calibration kernel timed, and its host seconds are scaled to a
// reference host on which the kernel takes calibRef. A host metric then
// moves with the program and less with the neighbours.
//
// The kernel shares no code with the program, allocates nothing once
// built, and mixes two things the simulator spends its time on:
// dependent loads that miss the private caches, and branchy
// comparisons. A map-update part was tried as well and left out: its
// time correlated least with the simulator's. The kernel runs in the
// parent while the round's process waits on a pipe, so its memory never
// counts toward the round's peak RSS.
//
// What scaling cannot remove is the spread between fresh processes of
// the same round (about 10% on that VM, even while the kernel's time
// holds still); averaging over a run's rounds takes care of that.

// calibRef is the kernel's time on the reference host; it was set near
// the kernel's time on the VM described above.
const calibRef = 33 * time.Millisecond

const (
	chaseLen   = 1 << 21 // 8 MiB of uint32: past the private caches
	chaseSteps = 200_000
	sortLen    = 1 << 18
)

type calibrator struct {
	chain []uint32
	xs    []uint64
	sink  uint64
}

func newCalibrator() *calibrator {
	k := &calibrator{
		chain: make([]uint32, chaseLen),
		xs:    make([]uint64, sortLen),
	}
	for i := range k.chain {
		k.chain[i] = uint32(i)
	}
	// Sattolo's shuffle leaves one cycle through every entry, so the
	// chase never settles into a short loop the caches could hold.
	x := uint64(12345)
	for i := chaseLen - 1; i > 0; i-- {
		x = lcg(x)
		j := int((x >> 11) % uint64(i))
		k.chain[i], k.chain[j] = k.chain[j], k.chain[i]
	}
	return k
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// slowness times the kernel and returns its time ÷ calibRef: 1 on the
// reference host, above 1 on a slower one. Each part is timed on its
// own and the parts are combined by geometric mean, so none dominates.
func (k *calibrator) slowness() float64 {
	parts := []func(){k.chase, k.sort}
	logSum := 0.0
	for _, f := range parts {
		t0 := time.Now()
		f()
		logSum += math.Log(time.Since(t0).Seconds())
	}
	return math.Exp(logSum/float64(len(parts))) / calibRef.Seconds()
}

func (k *calibrator) chase() {
	p := uint32(0)
	for i := 0; i < chaseSteps; i++ {
		p = k.chain[p]
	}
	k.sink += uint64(p)
}

func (k *calibrator) sort() {
	x := uint64(1)
	for i := range k.xs {
		x = lcg(x)
		k.xs[i] = x
	}
	slices.Sort(k.xs)
	k.sink += k.xs[sortLen/2]
}

// serveCalibration is the parent's end of a round's calibration pipe:
// for every request byte it times the kernel and writes back the
// slowness as a line. It returns when the round's process closes its
// end or stops reading.
func serveCalibration(k *calibrator, req io.Reader, ack io.Writer) {
	buf := make([]byte, 1)
	for {
		if _, err := req.Read(buf); err != nil {
			return
		}
		if _, err := fmt.Fprintf(ack, "%v\n", k.slowness()); err != nil {
			return
		}
	}
}

// calibClient is a round's end of the pipe: file descriptors 3
// (requests) and 4 (replies), which the parent passes to it.
type calibClient struct {
	req      *os.File
	ack      *bufio.Reader
	readings []float64
}

func newCalibClient() *calibClient {
	return &calibClient{req: os.NewFile(3, "calib-req"), ack: bufio.NewReader(os.NewFile(4, "calib-ack"))}
}

// read asks the parent to time the kernel while this process waits,
// and records the slowness.
func (c *calibClient) read() {
	if _, err := c.req.Write([]byte{'c'}); err != nil {
		fatalf("calibration request (is this round run by the parent?): %v", err)
	}
	line, err := c.ack.ReadString('\n')
	if err != nil {
		fatalf("calibration reply: %v", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || s <= 0 {
		fatalf("calibration reply %q: %v", line, err)
	}
	c.readings = append(c.readings, s)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
