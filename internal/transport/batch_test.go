package transport

import (
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/netio"
	"switchml/internal/telemetry"
)

// runBatchCluster is runCluster with an explicit I/O burst ceiling on
// both sides (0 = the batched default).
func runBatchCluster(t *testing.T, n, d, batch int, seed int64) ([][]int32, []int32, *Aggregator, []*Client) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(rng.Intn(1001) - 500)
			want[j] += updates[i][j]
		}
	}
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Shards: 4,
		Batch:  batch,
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]int32, n)
	clients := make([]*Client, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Batch:      batch,
				Worker: core.WorkerConfig{
					ID: uint16(i), Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true,
				},
				RTO:     20 * time.Millisecond,
				Timeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			clients[i] = c
			results[i], errs[i] = c.AllReduceInt32(updates[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return results, want, agg, clients
}

// TestBatchedUnbatchedEquivalence runs the identical seeded job
// through netio's portable mode at burst ceiling 1 (one datagram per
// syscall, the unbatched reference) and the batched run-to-completion
// loops (default batch, best mode the host offers) and demands
// bit-identical aggregates — the guarantee that batching is purely an
// I/O change.
func TestBatchedUnbatchedEquivalence(t *testing.T) {
	const n, d, seed = 3, 4000, 99
	batched, want2, aggB, clB := runBatchCluster(t, n, d, 0, seed)
	defer aggB.Close()
	for _, c := range clB {
		defer c.Close()
	}
	// The mode is chosen at Wrap time, so the environment only needs
	// to hold while the reference cluster is built.
	t.Setenv(netio.NoMmsgEnv, "1")
	portable, want, aggP, clP := runBatchCluster(t, n, d, 1, seed)
	defer aggP.Close()
	for _, c := range clP {
		defer c.Close()
	}
	for j := range want {
		if want[j] != want2[j] {
			t.Fatalf("seeded inputs diverged at %d", j)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if portable[i][j] != want[j] || batched[i][j] != want[j] {
				t.Fatalf("worker %d elem %d: portable %d batched %d want %d",
					i, j, portable[i][j], batched[i][j], want[j])
			}
		}
	}

	// The debug documents must reflect the strategies actually run.
	stP := aggP.DebugState(false)
	if stP.Batch != 1 || stP.NetMode != "portable" {
		t.Errorf("portable agg debug = batch %d mode %q", stP.Batch, stP.NetMode)
	}
	stB := aggB.DebugState(false)
	if stB.Batch != DefaultBatch || stB.NetMode == "" {
		t.Errorf("batched agg debug = batch %d mode %q", stB.Batch, stB.NetMode)
	}
	// Portable-mode bursts are all exactly 1 datagram, which the
	// histogram's linear interpolation reads back as 0.5 — so the gate
	// is "recording", not a floor on the quantile itself.
	if stB.BatchOccupancyP50 <= 0 {
		t.Errorf("batched occupancy p50 = %v, want > 0 (histogram not recording)", stB.BatchOccupancyP50)
	}
	cst := clB[0].DebugState()
	if cst.Batch != DefaultBatch || cst.NetMode == "" {
		t.Errorf("batched client debug = batch %d mode %q", cst.Batch, cst.NetMode)
	}
	if lst := clP[0].DebugState(); lst.Batch != 1 || lst.NetMode != "portable" {
		t.Errorf("portable client debug = batch %d mode %q, want batch 1 portable", lst.Batch, lst.NetMode)
	}
}

// TestShardStageFlushZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on stageMulticast and flushShard: a
// shard accumulating a burst's multicast results and fanning them out
// to every peer must not touch the heap.
func TestShardStageFlushZeroAlloc(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	send, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	nc, err := netio.Wrap(send, netio.Config{Batch: 8, MTU: 2048})
	if err != nil {
		t.Fatal(err)
	}
	// The sink is never read: loopback UDP drops on a full receive
	// buffer without erroring the sender, so no draining goroutine
	// (whose own allocations would pollute AllocsPerRun) is needed.
	ap := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	reg := telemetry.NewRegistry()
	a := &Aggregator{
		sent:     reg.Counter("test_sent"),
		sendErrs: reg.Counter("test_send_errors"),
		peers:    make([]atomic.Pointer[netip.AddrPort], 2),
	}
	a.peers[0].Store(&ap)
	a.peers[1].Store(&ap)
	sh := &aggShard{
		nc:    nc,
		wire:  make([]byte, 128),
		block: make([]byte, 0, 8*2048),
	}
	step := func() {
		for k := 0; k < 4; k++ {
			a.stageMulticast(sh)
		}
		a.flushShard(sh)
	}
	step() // warm the staging arena
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("stage+flush cycle allocates %.2f/op in mode %v, want 0", allocs, nc.Mode())
	}
}

// TestBatchedDebugStateRace hammers the debug documents — including
// the merged occupancy snapshot and the pooled mesh buffer owner —
// while a batched job runs, for the race detector.
func TestBatchedDebugStateRace(t *testing.T) {
	const n, d = 2, 2000
	rng := rand.New(rand.NewSource(5))
	updates := make([][]int32, n)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(rng.Intn(100))
		}
	}
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Shards: 4,
		Switch: core.SwitchConfig{Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := agg.DebugState(true)
				_ = st.BatchOccupancyP99
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Worker:     core.WorkerConfig{ID: uint16(i), Workers: n, PoolSize: 8, SlotElems: 32, LossRecovery: true},
				RTO:        20 * time.Millisecond,
				Timeout:    10 * time.Second,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			pollers.Add(1)
			go func() {
				defer pollers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = c.DebugState()
					}
				}
			}()
			if _, err := c.AllReduceInt32(updates[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
}
