package transport

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
)

// runCluster aggregates one tensor per worker through a local
// aggregator and returns the per-worker results.
func runCluster(t *testing.T, n, s, k int, updates [][]int32, drop func(*packet.Packet) bool) ([][]int32, *Aggregator) {
	t.Helper()
	agg, err := NewAggregator(AggregatorConfig{
		Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
		DropResult: drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]int32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Worker: core.WorkerConfig{
					ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
				},
				RTO:     20 * time.Millisecond,
				Timeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			results[i], errs[i] = c.AllReduceInt32(updates[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return results, agg
}

func TestUDPAllReduce(t *testing.T) {
	const n, d = 4, 5000
	rng := rand.New(rand.NewSource(1))
	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(rng.Intn(1001) - 500)
			want[j] += updates[i][j]
		}
	}
	results, agg := runCluster(t, n, 8, 32, updates, nil)
	defer agg.Close()
	for i, res := range results {
		for j := range want {
			if res[j] != want[j] {
				t.Fatalf("worker %d elem %d: got %d want %d", i, j, res[j], want[j])
			}
		}
	}
}

// TestUDPSlotFillAccountsEveryCompletion checks an accounting identity
// of the burst-stamped switch clock on a 4-shard aggregator: every
// slot completion observes exactly one fill time, and none is
// negative, even when a phase opened by one shard's burst is closed by
// another shard's burst that was stamped earlier.
func TestUDPSlotFillAccountsEveryCompletion(t *testing.T) {
	const n, d = 4, 20000
	updates := make([][]int32, n)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(i + j)
		}
	}
	_, agg := runCluster(t, n, 8, 32, updates, nil)
	defer agg.Close()
	if agg.cfg.Shards != 4 {
		t.Fatalf("aggregator runs %d shards, want the default 4", agg.cfg.Shards)
	}
	snap := agg.Registry().Snapshot()
	completions := snap.Counters[`switch_completions_total{job="0"}`]
	fill, ok := snap.Histograms[`switch_slot_fill_ns{job="0"}`]
	if !ok {
		t.Fatal("switch_slot_fill_ns not registered")
	}
	if completions != (d+31)/32 {
		t.Errorf("completions = %d, want %d", completions, (d+31)/32)
	}
	if fill.Count != completions {
		t.Errorf("slot-fill observations = %d, completions = %d: every completion must observe one fill time", fill.Count, completions)
	}
	if fill.Sum < 0 {
		t.Errorf("slot-fill sum = %v ns, want >= 0", fill.Sum)
	}
}

func TestUDPAllReduceWithResultLoss(t *testing.T) {
	// Drop the first multicast result for every slot offset: workers
	// must recover through timeouts and the shadow-copy unicast path,
	// over real sockets.
	const n, d = 3, 1200
	var mu sync.Mutex
	dropped := map[uint64]bool{}
	drop := func(p *packet.Packet) bool {
		if p.Kind != packet.KindResult {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if !dropped[p.Off] {
			dropped[p.Off] = true
			return true
		}
		return false
	}
	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(i + j)
			want[j] += int32(i + j)
		}
	}
	results, agg := runCluster(t, n, 4, 16, updates, drop)
	defer agg.Close()
	for i, res := range results {
		for j := range want {
			if res[j] != want[j] {
				t.Fatalf("worker %d elem %d: got %d want %d", i, j, res[j], want[j])
			}
		}
	}
	if agg.Stats().ResultRetransmissions == 0 {
		t.Error("expected unicast result retransmissions over UDP")
	}
}

func TestUDPConsecutiveTensors(t *testing.T) {
	const n = 2
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: n, PoolSize: 4, SlotElems: 8, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	var wg sync.WaitGroup
	failed := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: 4, SlotElems: 8, LossRecovery: true},
				RTO:        20 * time.Millisecond,
			})
			if err != nil {
				failed[i] = err
				return
			}
			defer c.Close()
			for iter := 0; iter < 3; iter++ {
				u := make([]int32, 100+iter*37)
				for j := range u {
					u[j] = int32(iter*1000 + j)
				}
				res, err := c.AllReduceInt32(u)
				if err != nil {
					failed[i] = err
					return
				}
				for j := range u {
					if res[j] != 2*u[j] {
						failed[i] = errIter{int32(iter), int32(j), res[j], 2 * u[j]}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range failed {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

type errIter [4]int32

func (e errIter) Error() string { return "iteration value mismatch" }

func TestUDPEmptyTensor(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 1, SlotElems: 4, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	c, err := NewClient(ClientConfig{
		Aggregator: agg.Addr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: 1, SlotElems: 4, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.AllReduceInt32(nil)
	if err != nil || out != nil {
		t.Errorf("empty AllReduce = %v, %v", out, err)
	}
}

func TestUDPValidation(t *testing.T) {
	if _, err := NewAggregator(AggregatorConfig{Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{}}); err == nil {
		t.Error("bad switch config accepted")
	}
	if _, err := NewAggregator(AggregatorConfig{Addr: "not-an-addr",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 1, SlotElems: 1}}); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := NewClient(ClientConfig{Aggregator: "127.0.0.1:1",
		Worker: core.WorkerConfig{}}); err == nil {
		t.Error("bad worker config accepted")
	}
	if _, err := NewClient(ClientConfig{Aggregator: "not-an-addr",
		Worker: core.WorkerConfig{Workers: 1, PoolSize: 1, SlotElems: 1}}); err == nil {
		t.Error("bad aggregator address accepted")
	}
}

func TestAggregatorDoubleClose(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 1, SlotElems: 1, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Close(); err != nil {
		t.Errorf("first close: %v", err)
	}
	if err := agg.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestUDPTimeoutWhenAlone(t *testing.T) {
	// A 2-worker job with only one participant must time out, not
	// hang.
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 2, PoolSize: 2, SlotElems: 4, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	c, err := NewClient(ClientConfig{
		Aggregator: agg.Addr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 2, PoolSize: 2, SlotElems: 4, LossRecovery: true},
		RTO:        10 * time.Millisecond,
		Timeout:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AllReduceInt32([]int32{1, 2, 3}); err == nil {
		t.Error("lonely worker did not time out")
	}
	if c.Stats().Retransmissions == 0 {
		t.Error("no retransmissions before timeout")
	}
}

func TestAggregatorResetRestartsJob(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 2, PoolSize: 4, SlotElems: 8, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	run := func() error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := NewClient(ClientConfig{
					Aggregator: agg.Addr().String(),
					Worker:     core.WorkerConfig{ID: uint16(i), Workers: 2, PoolSize: 4, SlotElems: 8, LossRecovery: true},
					RTO:        20 * time.Millisecond,
					Timeout:    5 * time.Second,
				})
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				u := make([]int32, 300)
				for j := range u {
					u[j] = int32(j)
				}
				out, err := c.AllReduceInt32(u)
				if err != nil {
					errs[i] = err
					return
				}
				if out[5] != 10 {
					errs[i] = errIter{0, 5, out[5], 10}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(); err != nil {
		t.Fatalf("first job: %v", err)
	}
	// Fresh clients start their stream at offset 0 again: only valid
	// after Reset.
	agg.Reset()
	if err := run(); err != nil {
		t.Fatalf("restarted job: %v", err)
	}
}
