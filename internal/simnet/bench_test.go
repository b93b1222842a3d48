package simnet

import (
	"testing"
	"time"

	"harmonia/internal/sim"
)

// benchBacklog is the standing wait-queue depth of the send benchmark:
// a replica past the knee holds about this many messages.
const benchBacklog = 1024

// newBacklogNet builds a sender and a single-worker receiver with a
// standing backlog of benchBacklog messages, each served in 1µs.
func newBacklogNet() (*sim.Engine, *Network, *Node) {
	eng, net := newNet(1, LinkConfig{})
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	nd := net.AddNode(2, HandlerFunc(func(NodeID, Message) {}), ProcConfig{
		Workers: 1,
		Cost:    func(Message) time.Duration { return time.Microsecond },
	})
	for i := 0; i <= benchBacklog; i++ {
		net.Send(1, 2, "m")
	}
	eng.RunFor(0)
	return eng, net, nd
}

// sendStep sends one message into the backlog and advances the clock
// by one service time, so exactly one message completes and the
// backlog stays put.
func sendStep(eng *sim.Engine, net *Network) {
	net.Send(1, 2, "m")
	eng.RunFor(time.Microsecond)
}

// TestNetworkSendZeroAllocs asserts a send through a node with a
// standing backlog — link lookup, arrival, enqueue, completion,
// dequeue — allocates nothing once the queue has grown.
func TestNetworkSendZeroAllocs(t *testing.T) {
	eng, net, nd := newBacklogNet()
	if a := testing.AllocsPerRun(1000, func() { sendStep(eng, net) }); a != 0 {
		t.Fatalf("send through backlog: %.1f allocs/op, want 0", a)
	}
	if nd.QueueLen() != benchBacklog {
		t.Fatalf("backlog drifted to %d, want %d", nd.QueueLen(), benchBacklog)
	}
}

func BenchmarkNetworkSend(b *testing.B) {
	eng, net, _ := newBacklogNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendStep(eng, net)
	}
}
