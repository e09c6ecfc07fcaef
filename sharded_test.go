package switchml

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// listenSharded serves the pools of a ShardedPeer set from one
// aggregator: job ids jobBase..jobBase+shards-1.
func listenSharded(t *testing.T, jobBase uint16, shards int, params AggregatorParams) *Aggregator {
	t.Helper()
	params.JobID = jobBase
	agg, err := ListenAggregator("127.0.0.1:0", params)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	for s := 1; s < shards; s++ {
		if err := agg.AdmitJob(jobBase+uint16(s), params); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

func TestShardedPeerAllReduce(t *testing.T) {
	const (
		n      = 3
		shards = 4
		d      = 10001 // non-divisible by shards
	)
	m := listenSharded(t, 0, shards, AggregatorParams{Workers: n, PoolSize: 8})

	rng := rand.New(rand.NewSource(1))
	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(rng.Intn(201) - 100)
			want[j] += updates[i][j]
		}
	}

	var wg sync.WaitGroup
	results := make([][]int32, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, err := DialSharded(m.Addr(), ShardedPeerParams{
				ID: i, Workers: n, Shards: shards, PoolSize: 8,
				RTO: 20 * time.Millisecond, Timeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer sp.Close()
			results[i], errs[i] = sp.AllReduceInt32(updates[i])
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for j := range want {
			if results[i][j] != want[j] {
				t.Fatalf("worker %d elem %d: got %d want %d", i, j, results[i][j], want[j])
			}
		}
	}
}

func TestShardedPeerFloat32(t *testing.T) {
	const n, shards = 2, 2
	m := listenSharded(t, 10, shards, AggregatorParams{Workers: n, PoolSize: 4})
	var wg sync.WaitGroup
	outs := make([][]float32, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, err := DialSharded(m.Addr(), ShardedPeerParams{
				ID: i, Workers: n, Shards: shards, JobBase: 10, PoolSize: 4, Scale: 1e5,
				RTO: 20 * time.Millisecond,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer sp.Close()
			u := make([]float32, 777)
			for j := range u {
				u[j] = float32(i) + 0.5
			}
			outs[i], errs[i] = sp.AllReduceFloat32(u)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for j, v := range outs[i] {
			if v != 2 { // (0+0.5) + (1+0.5)
				t.Fatalf("worker %d elem %d: got %v want 2", i, j, v)
			}
		}
	}
}

func TestShardedPeerValidation(t *testing.T) {
	m := listenSharded(t, 0, 2, AggregatorParams{Workers: 1})
	if err := m.AdmitJob(1, AggregatorParams{Workers: 1}); err == nil {
		t.Error("duplicate job admitted")
	}
	if _, err := DialSharded(m.Addr(), ShardedPeerParams{ID: 0, Workers: 1, Shards: -1}); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := DialSharded(m.Addr(), ShardedPeerParams{ID: 0, Workers: 1, Scale: -1}); err == nil {
		t.Error("bad scale accepted")
	}
	sp, err := DialSharded(m.Addr(), ShardedPeerParams{ID: 0, Workers: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.Shards() != 2 {
		t.Errorf("Shards = %d", sp.Shards())
	}
	if _, err := sp.AllReduceFloat32([]float32{1}); err == nil {
		t.Error("float32 without scale accepted")
	}
	if out, err := sp.AllReduceInt32(nil); out != nil || err != nil {
		t.Errorf("empty = %v, %v", out, err)
	}
}
