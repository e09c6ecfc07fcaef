// The race runtime's sync.Pool drops Puts at random, so pooled packets
// re-allocate and allocation counts mean nothing under -race.

//go:build !race

package rack

import (
	"testing"

	"switchml/internal/netsim"
)

// TestRackHotpathAllocsPerDelivery bounds the simulator's allocation
// rate on the lossy benchmark configuration (8 workers, 10 Gbps, 1%
// loss, 1 ms RTO): events ride lanes by value, multicast results are
// shared and update packets return to their pool, so what remains is
// one result packet per switch response plus per-run set-up, well
// under one allocation per two delivered packets.
func TestRackHotpathAllocsPerDelivery(t *testing.T) {
	u := make([]int32, 64<<10)
	for i := range u {
		u[i] = int32(i)
	}
	var delivered uint64
	allocs := testing.AllocsPerRun(1, func() {
		r, err := NewRack(Config{Workers: 8, LossRate: 0.01, RTO: netsim.Millisecond, LossRecovery: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.AllReduceShared(u); err != nil {
			t.Fatal(err)
		}
		delivered = r.Counters()["packets_delivered"]
	})
	perPkt := allocs / float64(delivered)
	t.Logf("%.0f allocs for %d deliveries: %.3f per delivered packet", allocs, delivered, perPkt)
	if perPkt >= 0.5 {
		t.Errorf("SimulateRack allocates %.3f per delivered packet, want < 0.5", perPkt)
	}
}
