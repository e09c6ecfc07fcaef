package core

import (
	"sync"
	"testing"

	"switchml/internal/packet"
)

// TestShardedMatchesSerial drives the same packet schedule through a
// plain Switch and a ShardedSwitch (single-threaded) and checks the
// responses agree bit for bit: the locking facade must not change
// protocol behaviour.
func TestShardedMatchesSerial(t *testing.T) {
	cfg := SwitchConfig{Workers: 4, PoolSize: 8, SlotElems: 8, LossRecovery: true}
	plain, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]int32, 8)
	for round := 0; round < 6; round++ {
		for idx := uint32(0); idx < 8; idx++ {
			for w := uint16(0); w < 4; w++ {
				for i := range vec {
					vec[i] = int32(w)*100 + int32(i) + int32(round)
				}
				p := packet.NewUpdate(w, 0, uint8(round%2), idx, uint64(round)*64+uint64(idx)*8, vec)
				a := plain.Handle(p)
				b := sharded.Handle(p)
				if (a.Pkt == nil) != (b.Pkt == nil) || a.Multicast != b.Multicast {
					t.Fatalf("round %d idx %d w %d: response shape diverged", round, idx, w)
				}
				if a.Pkt != nil {
					if a.Pkt.String() != b.Pkt.String() {
						t.Fatalf("response mismatch: %v vs %v", a.Pkt, b.Pkt)
					}
					for i := range a.Pkt.Vector {
						if a.Pkt.Vector[i] != b.Pkt.Vector[i] {
							t.Fatalf("vector[%d] = %d vs %d", i, a.Pkt.Vector[i], b.Pkt.Vector[i])
						}
					}
				}
			}
		}
	}
	if plain.Stats() != sharded.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", plain.Stats(), sharded.Stats())
	}
}

// TestShardedConcurrentSlots aggregates disjoint slot ranges from
// concurrent goroutines — the Flow Director model — and checks every
// completion is produced with the correct sum. Run under -race this
// is the shard-dispatch safety test.
func TestShardedConcurrentSlots(t *testing.T) {
	const (
		workers = 4
		pool    = 32
		elems   = 8
		shards  = 4
		rounds  = 50
	)
	ss, err := NewShardedSwitch(SwitchConfig{
		Workers: workers, PoolSize: pool, SlotElems: elems, LossRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	completions := make([]int, shards)
	for s := 0; s < shards; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out packet.Packet
			var p packet.Packet
			vec := make([]int32, elems)
			// Shard s owns slots where idx % shards == s.
			for round := 0; round < rounds; round++ {
				for idx := uint32(s); idx < pool; idx += shards {
					off := uint64(round)*pool*elems + uint64(idx)*elems
					for w := uint16(0); w < workers; w++ {
						for i := range vec {
							vec[i] = int32(w) + int32(i)
						}
						p.SetUpdate(w, 0, uint8(round%2), idx, off, vec)
						resp := ss.HandleInto(&p, &out)
						if resp.Pkt != nil {
							if !resp.Multicast {
								t.Errorf("unexpected unicast on clean path")
							}
							// Sum over w of (w + i) = 6 + 4i for 4 workers.
							for i, v := range resp.Pkt.Vector {
								if want := int32(6 + 4*i); v != want {
									t.Errorf("slot %d vector[%d] = %d, want %d", idx, i, v, want)
								}
							}
							completions[s]++
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range completions {
		total += c
	}
	if want := rounds * pool; total != want {
		t.Errorf("completions = %d, want %d", total, want)
	}
	st := ss.Stats()
	if st.Completions != uint64(rounds*pool) || st.Updates != uint64(rounds*pool*workers) {
		t.Errorf("stats = %+v", st)
	}
}

// TestShardedReconfigureExcludesHandlers checks a reconfiguration
// under live traffic neither races nor loses the membership change.
func TestShardedReconfigureExcludesHandlers(t *testing.T) {
	const workers = 4
	ss, err := NewShardedSwitch(SwitchConfig{
		Workers: workers, PoolSize: 4, SlotElems: 4, LossRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p, out packet.Packet
			vec := []int32{1, 2, 3, 4}
			off := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.SetUpdate(uint16(w), ss.JobID(), 0, uint32(w%4), off, vec)
				ss.HandleInto(&p, &out)
				off += 4
			}
		}()
	}
	active := []bool{true, true, true, false}
	if err := ss.Reconfigure(active, 7); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if got := ss.Required(); got != 3 {
		t.Errorf("Required = %d, want 3", got)
	}
	if ss.JobID() != 7 {
		t.Errorf("JobID = %d, want 7", ss.JobID())
	}
	if ss.Active(3) {
		t.Error("worker 3 still active after reconfigure")
	}
}

// TestSwitchIngressZeroAlloc asserts the steady-state ingress path —
// admit, accumulate, complete, egress into borrowed storage — never
// allocates.
func TestSwitchIngressZeroAlloc(t *testing.T) {
	const n = 4
	sw, err := NewSwitch(SwitchConfig{Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true})
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
	allocs := testing.AllocsPerRun(100, step)
	if allocs != 0 {
		t.Errorf("switch ingress allocates %.2f/op, want 0", allocs)
	}
}

// TestShardedIngressZeroAlloc asserts the same for the sharded
// dispatch path (lock + handle + borrowed egress).
func TestShardedIngressZeroAlloc(t *testing.T) {
	const n = 4
	ss, err := NewShardedSwitch(SwitchConfig{Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true})
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
			ss.HandleInto(p, &out)
		}
		round++
	}
	step()
	allocs := testing.AllocsPerRun(100, step)
	if allocs != 0 {
		t.Errorf("sharded ingress allocates %.2f/op, want 0", allocs)
	}
}

// TestShardedIngressAtZeroAlloc is the AllocsPerRun gate of the
// stamped entry point: with a clock configured and the fill histogram
// armed, HandleIntoAt allocates nothing either.
func TestShardedIngressAtZeroAlloc(t *testing.T) {
	const n = 4
	ss, err := NewShardedSwitch(SwitchConfig{
		Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
		Now: func() int64 { return 0 },
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
			ss.HandleIntoAt(p, &out, int64(round*1000+w))
		}
		round++
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("stamped sharded ingress allocates %.2f/op, want 0", allocs)
	}
	if ss.Stats().Completions == 0 {
		t.Fatal("no completions")
	}
}

// TestAddVec checks the unrolled vector add against the obvious loop
// across lengths spanning the unroll boundary.
func TestAddVec(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 31, 32, 33, 366} {
		dst := make([]int32, n)
		want := make([]int32, n)
		src := make([]int32, n)
		for i := range src {
			src[i] = int32(i*3 - 7)
			dst[i] = int32(i)
			want[i] = dst[i] + src[i]
		}
		addVec(dst, src)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: dst[%d] = %d, want %d", n, i, dst[i], want[i])
			}
		}
	}
}
