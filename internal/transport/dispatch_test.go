package transport

import (
	"net"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
)

// TestAggregatorCountsUnexpectedKinds is the regression test for the
// serve loops' dispatch defaults: a well-formed datagram whose kind
// workers never originate (a result, here) must not vanish silently —
// the aggregator drops it and increments udp_unexpected_kind_total.
func TestAggregatorCountsUnexpectedKinds(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 2, SlotElems: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	conn, err := net.DialUDP("udp", nil, agg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	bogus := packet.Packet{Kind: packet.KindResult, WorkerID: 0, Idx: 0, Vector: []int32{1, 2, 3, 4}}
	wire := bogus.Marshal()
	ctr := agg.Registry().Counter("udp_unexpected_kind_total", "role", "aggregator")
	deadline := time.Now().Add(5 * time.Second)
	for ctr.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unexpected-kind counter never incremented for a KindResult datagram")
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientCountsUnexpectedKind pins the worker-side dispatch
// default: kinds an aggregator never sends (updates, reports,
// heartbeats) are dropped and counted rather than silently ignored.
func TestClientCountsUnexpectedKind(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 2, SlotElems: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	c, err := NewClient(ClientConfig{
		Aggregator: agg.Addr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: 2, SlotElems: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, k := range []packet.Kind{packet.KindUpdate, packet.KindReport, packet.KindHeartbeat} {
		done, err := c.handleIncoming(&packet.Packet{Kind: k}, time.Now())
		if done || err != nil {
			t.Fatalf("handleIncoming(%v) = %v, %v; want false, nil", k, done, err)
		}
	}
	ctr := c.Registry().Counter("udp_unexpected_kind_total", "role", "worker", "worker", "0")
	if got := ctr.Value(); got != 3 {
		t.Fatalf("unexpected-kind counter = %d after 3 undispatched kinds, want 3", got)
	}
}
