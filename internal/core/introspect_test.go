package core

import (
	"testing"

	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// feed sends one update for worker w at (ver, idx, off).
func feed(t *testing.T, sw *Switch, w, ver, idx int, off uint64, vec []int32) Response {
	t.Helper()
	p := packet.NewUpdate(uint16(w), sw.JobID(), uint8(ver), uint32(idx), off, vec)
	return sw.Handle(p)
}

// TestPoolStateIntrospection checks the deep-state document against a
// hand-built pool: one slot mid-aggregation, one completed and
// retained, the rest idle.
func TestPoolStateIntrospection(t *testing.T) {
	const n = 3
	sw, err := NewSwitch(SwitchConfig{Workers: n, PoolSize: 4, SlotElems: 8, LossRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	vec := []int32{1, 2, 3}
	// Slot 0: two of three contributions — busy.
	feed(t, sw, 0, 0, 0, 0, vec)
	feed(t, sw, 1, 0, 0, 0, vec)
	// Slot 1: all three — complete, retained for shadow reads.
	feed(t, sw, 0, 0, 1, 8, vec)
	feed(t, sw, 1, 0, 1, 8, vec)
	if resp := feed(t, sw, 2, 0, 1, 8, vec); resp.Pkt == nil || !resp.Multicast {
		t.Fatal("slot 1 did not complete")
	}

	ps := sw.PoolState(true)
	if ps.Workers != n || ps.Required != n || ps.PoolSize != 4 || ps.Versions != 2 {
		t.Errorf("header = %+v", ps)
	}
	if ps.Busy[0] != 1 || ps.Retained[0] != 1 {
		t.Errorf("busy/retained v0 = %d/%d, want 1/1", ps.Busy[0], ps.Retained[0])
	}
	if ps.Busy[1] != 0 || ps.Retained[1] != 0 {
		t.Errorf("busy/retained v1 = %d/%d, want 0/0", ps.Busy[1], ps.Retained[1])
	}
	if want := 1.0 / 8.0; ps.Occupancy != want {
		t.Errorf("occupancy = %v, want %v", ps.Occupancy, want)
	}
	if len(ps.Slots) != 8 {
		t.Fatalf("slots = %d, want 8 (4 x 2 versions)", len(ps.Slots))
	}
	var s0, s1 SlotState
	for _, st := range ps.Slots {
		if st.Ver == 0 && st.Idx == 0 {
			s0 = st
		}
		if st.Ver == 0 && st.Idx == 1 {
			s1 = st
		}
	}
	if s0.Count != 2 || s0.SeenCount != 2 || s0.Seen != 0b011 || s0.Off != 0 {
		t.Errorf("slot 0 = %+v, want count 2 seen {0,1}", s0)
	}
	if s1.Count != 0 || s1.SeenCount != 3 || s1.Off != 8 || s1.Elems != 3 {
		t.Errorf("slot 1 = %+v, want retained at off 8", s1)
	}
	// Straggler attribution: worker 2 closed the only completion.
	if la := ps.LastArrivals; la[0] != 0 || la[1] != 0 || la[2] != 1 {
		t.Errorf("last arrivals = %v, want [0 0 1]", la)
	}
	if slim := sw.PoolState(false); slim.Slots != nil {
		t.Error("withSlots=false still dumped slots")
	}
}

// TestShardedPoolState checks the locked variant sees the same pool
// and stays safe under concurrent ingress (exercised further by the
// race-mode chaos tests).
func TestShardedPoolState(t *testing.T) {
	const n = 2
	ss, err := NewShardedSwitch(SwitchConfig{Workers: n, PoolSize: 4, SlotElems: 8, LossRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	vec := []int32{5}
	p := packet.NewUpdate(0, 0, 0, 2, 0, vec)
	ss.Handle(p)
	ps := ss.PoolState(true)
	if ps.Busy[0] != 1 {
		t.Errorf("busy = %v, want one v0 slot", ps.Busy)
	}
	if len(ps.Slots) != 8 {
		t.Fatalf("slots = %d, want 8", len(ps.Slots))
	}
	for _, st := range ps.Slots {
		if st.Ver == 0 && st.Idx == 2 && (st.Count != 1 || st.SeenCount != 1) {
			t.Errorf("slot 2 = %+v, want one contribution", st)
		}
	}
	if la := ss.LastArrivals(); len(la) != n {
		t.Errorf("last arrivals = %v, want len %d", la, n)
	}
}

// TestSlotFillLatency drives a clocked switch and checks the
// fill-latency histogram observes open-to-completion time.
func TestSlotFillLatency(t *testing.T) {
	const n = 2
	reg := telemetry.NewRegistry()
	now := int64(0)
	sw, err := NewSwitch(SwitchConfig{
		Workers: n, PoolSize: 2, SlotElems: 8, LossRecovery: true,
		JobID: 9, Metrics: reg, Now: func() int64 { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	vec := []int32{1}
	now = 1000
	feed(t, sw, 0, 0, 0, 0, vec) // phase opens at t=1000
	now = 5000
	feed(t, sw, 1, 0, 0, 0, vec) // completes at t=5000
	h, ok := reg.Snapshot().Histograms[`switch_slot_fill_ns{job="9"}`]
	if !ok {
		t.Fatal("switch_slot_fill_ns not registered")
	}
	if h.Count != 1 || h.Sum != 4000 {
		t.Errorf("fill histogram count/sum = %d/%v, want 1/4000", h.Count, h.Sum)
	}
	// Straggler counters share the registry.
	s := reg.Snapshot()
	if v := s.Counters[`switch_last_contributor_total{job="9",worker="1"}`]; v != 1 {
		t.Errorf("last contributor worker 1 = %d, want 1", v)
	}
}

// TestSlotFillStamped checks the stamped entry point: the caller's
// stamps replace every clock read, and a phase closed by a stamp
// earlier than the one that opened it (two shards' bursts stamped out
// of order) records a fill time of zero, not a negative one.
func TestSlotFillStamped(t *testing.T) {
	reg := telemetry.NewRegistry()
	ss, err := NewShardedSwitch(SwitchConfig{
		Workers: 2, PoolSize: 2, SlotElems: 8, LossRecovery: true, JobID: 4, Metrics: reg,
		Now: func() int64 { t.Fatal("clock read on the stamped path"); return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	vec := []int32{1}
	// Slot 0: opened at 1000, closed at 3500.
	ss.HandleIntoAt(packet.NewUpdate(0, 4, 0, 0, 0, vec), &packet.Packet{}, 1000)
	ss.HandleIntoAt(packet.NewUpdate(1, 4, 0, 0, 0, vec), &packet.Packet{}, 3500)
	// Slot 1: opened at 9000, closed by a burst stamped at 8000.
	ss.HandleIntoAt(packet.NewUpdate(1, 4, 0, 1, 8, vec), &packet.Packet{}, 9000)
	if r := ss.HandleIntoAt(packet.NewUpdate(0, 4, 0, 1, 8, vec), &packet.Packet{}, 8000); r.Pkt == nil || !r.Multicast {
		t.Fatalf("slot 1 did not complete: %+v", r)
	}
	h := reg.Snapshot().Histograms[`switch_slot_fill_ns{job="4"}`]
	if h.Count != 2 || h.Sum != 2500 {
		t.Errorf("fill histogram count/sum = %d/%v, want 2/2500 (2500 + a clamped 0)", h.Count, h.Sum)
	}
}

// TestInstrumentedIngressZeroAlloc pins the new sampling points: with
// full instrumentation armed — registry-backed counters, a clock for
// the fill histogram, straggler attribution — steady-state ingress
// still allocates nothing.
func TestInstrumentedIngressZeroAlloc(t *testing.T) {
	const n = 4
	reg := telemetry.NewRegistry()
	now := int64(0)
	sw, err := NewSwitch(SwitchConfig{
		Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
		Metrics: reg, Now: func() int64 { now += 17; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]int32, 32)
	pkts := make([]*packet.Packet, n)
	for w := range pkts {
		pkts[w] = packet.NewUpdate(uint16(w), 0, 0, 0, 0, vec)
	}
	var out packet.Packet
	round := 0
	step := func() {
		for w := 0; w < n; w++ {
			p := pkts[w]
			p.Ver = uint8(round % 2)
			p.Off = uint64(round * 32)
			sw.HandleInto(p, &out)
		}
		round++
	}
	step() // warm out.Vector
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("instrumented ingress allocates %.2f/op, want 0", allocs)
	}
	if sw.Stats().Completions == 0 {
		t.Fatal("no completions — the instrumentation never fired")
	}
}
