package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"testing"
)

// TestServeCalibration drives the parent's end of the calibration pipe
// the way a round does: one request byte, one slowness line back, and a
// return once the round closes its end.
func TestServeCalibration(t *testing.T) {
	reqR, reqW := io.Pipe()
	ackR, ackW := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveCalibration(newCalibrator(), reqR, ackW)
	}()
	ack := bufio.NewReader(ackR)
	for i := 0; i < 2; i++ {
		if _, err := reqW.Write([]byte{'c'}); err != nil {
			t.Fatal(err)
		}
		line, err := ack.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
		if err != nil || s <= 0 {
			t.Fatalf("reply %q: slowness %v, err %v", line, s, err)
		}
	}
	reqW.Close()
	<-done
}
