package transport

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchml/internal/core"
)

// TestConcurrentStats hammers Aggregator.Stats, Registry dumps and
// Client.Stats from monitoring goroutines while an all-reduce is in
// flight. Under -race this pins the satellite guarantee: snapshot
// paths never race with packet handling, because every counter behind
// them is atomic.
func TestConcurrentStats(t *testing.T) {
	const n, s, k = 4, 8, 16
	agg, err := NewAggregator(AggregatorConfig{
		Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		clients[i], err = NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker: core.WorkerConfig{
				ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
			},
			RTO: 20 * time.Millisecond,
			// The four spinning monitors own most of a single-core
			// host under the race detector, so the all-reduce crawls;
			// the generous deadline keeps this a race test, not a
			// latency test.
			Timeout: 60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}

	// Monitoring goroutines poll every snapshot surface continuously
	// until the traffic stops.
	stop := make(chan struct{})
	var mons sync.WaitGroup
	var polls atomic.Uint64
	for g := 0; g < 4; g++ {
		mons.Add(1)
		go func() {
			defer mons.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = agg.Stats()
				var sb strings.Builder
				agg.Registry().WriteText(&sb)
				for _, c := range clients {
					_ = c.Stats()
					_ = c.Registry().Snapshot()
				}
				polls.Add(1)
			}
		}()
	}

	u := make([]int32, 10000)
	for i := range u {
		u[i] = 2
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([][]int32, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = clients[i].AllReduceInt32(u)
		}()
	}
	wg.Wait()
	close(stop)
	mons.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		for j, v := range results[i] {
			if v != int32(2*n) {
				t.Fatalf("worker %d elem %d: got %d, want %d", i, j, v, 2*n)
			}
		}
	}
	if polls.Load() == 0 {
		t.Fatal("monitors never polled")
	}
	// The snapshots the monitors read are the same counters the
	// protocol incremented: the final view must reflect the traffic.
	if st := agg.Stats(); st.Completions == 0 {
		t.Error("aggregator saw no completions")
	}
	if v := agg.Registry().Counter("udp_datagrams_received_total", "role", "aggregator").Value(); v == 0 {
		t.Error("datagram counter never moved")
	}
}

// TestShardedAggregatorConcurrentClients drives back-to-back
// all-reduces from concurrent clients into an aggregator with an
// explicit shard count and the liveness detector on, so that under
// -race the per-slot locking, the atomic peer/epoch/tracker fast
// paths and the sweeper all run against live traffic.
func TestShardedAggregatorConcurrentClients(t *testing.T) {
	const n, s, k = 4, 8, 16
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Shards: 8,
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
		Liveness: &LivenessConfig{
			SilenceAfter: 5 * time.Second,
			CheckEvery:   10 * time.Millisecond, // sweep constantly under traffic
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		clients[i], err = NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker: core.WorkerConfig{
				ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
			},
			RTO:       20 * time.Millisecond,
			Timeout:   10 * time.Second,
			Heartbeat: 5 * time.Millisecond, // hammer the lock-free touch path
		})
		if err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}

	const tensors = 3
	u := make([]int32, 4096)
	for i := range u {
		u[i] = 3
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rounds := 0; rounds < tensors; rounds++ {
				out, err := clients[i].AllReduceInt32(u)
				if err != nil {
					errs[i] = err
					return
				}
				for j, v := range out {
					if v != 3*n {
						errs[i] = fmt.Errorf("tensor %d elem %d: got %d, want %d", rounds, j, v, 3*n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if st := agg.Stats(); st.Completions == 0 {
		t.Error("aggregator saw no completions")
	}
	if agg.Epoch() != 0 {
		t.Errorf("liveness detector fired a recovery on a healthy job (epoch %d)", agg.Epoch())
	}
	for i := 0; i < n; i++ {
		if !agg.Alive(i) {
			t.Errorf("worker %d wrongly declared dead", i)
		}
	}
}

// TestMultiAggConcurrentStats does the same for a multi-tenant job
// table: JobStats, MemoryBytes, Jobs, the debug document and the
// registry dump race-free against concurrent jobs from two tenants
// and a third job admitted and released meanwhile.
func TestMultiAggConcurrentStats(t *testing.T) {
	const n, s, k = 2, 4, 8
	m := newMultiJobAgg(t, core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true}, 1, 2)

	stop := make(chan struct{})
	var mons sync.WaitGroup
	mons.Add(1)
	go func() {
		defer mons.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, job := range []uint16{1, 2} {
				_, _ = m.JobStats(job)
			}
			_ = m.MemoryBytes()
			_ = m.Jobs()
			_ = m.DebugState(true)
			if err := m.AdmitJob(core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, JobID: 3}); err == nil {
				_ = m.ReleaseJob(3)
			}
			var sb strings.Builder
			m.Registry().WriteText(&sb)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 2*n)
	for _, job := range []uint16{1, 2} {
		for i := 0; i < n; i++ {
			job, i := job, i
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := NewClient(ClientConfig{
					Aggregator: m.Addr().String(),
					Worker: core.WorkerConfig{
						ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k,
						LossRecovery: true, JobID: job,
					},
					RTO:     20 * time.Millisecond,
					Timeout: 10 * time.Second,
				})
				if err != nil {
					errCh <- err
					return
				}
				defer c.Close()
				_, err = c.AllReduceInt32(make([]int32, 5000))
				errCh <- err
			}()
		}
	}
	wg.Wait()
	close(stop)
	mons.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st, ok := m.JobStats(1); !ok || st.Completions == 0 {
		t.Error("job 1 saw no completions")
	}
	// Both jobs' counters landed in the shared registry under their
	// own labels.
	snap := m.Registry().Snapshot()
	if snap.Counters[`switch_completions_total{job="1"}`] == 0 ||
		snap.Counters[`switch_completions_total{job="2"}`] == 0 {
		t.Error("per-job completion counters missing from registry")
	}
}
