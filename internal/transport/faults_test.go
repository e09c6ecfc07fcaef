package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netio"
	"switchml/internal/packet"
)

// checkBoundary verifies the post-recovery aggregate shape: a prefix
// of full-membership sums, a suffix of survivor-only sums, and a
// single transition aligned to a chunk boundary.
func checkBoundary(t *testing.T, got []int32, full, surv int32, k int) int {
	t.Helper()
	boundary := -1
	for j, v := range got {
		switch {
		case boundary < 0 && v == full:
			continue
		case boundary < 0 && v == surv:
			boundary = j
		case boundary >= 0 && v == surv:
			continue
		default:
			t.Fatalf("elem %d: got %d, want %d (full) before the boundary or %d (survivors) after", j, v, full, surv)
		}
	}
	if boundary < 0 {
		boundary = len(got)
	}
	if boundary%k != 0 {
		t.Fatalf("recovery boundary %d is not aligned to the %d-element chunk size", boundary, k)
	}
	return boundary
}

// TestFaultUDPInjectorLoss pushes a tensor through clients and an
// aggregator that all drop, duplicate and corrupt datagrams via the
// seeded injector; retransmission and the checksum must still produce
// exact sums. Every injector must have exercised all three verdicts
// on endpoints running a netio mode, which proves the chaos traffic
// takes the production send path. The duplicate and corruption rates
// are high enough that each seed draws all three verdicts within the
// first 45 datagrams, well inside the 188 every endpoint must send.
func TestFaultUDPInjectorLoss(t *testing.T) {
	const n, s, k, d = 2, 4, 16, 3000
	agg, err := NewAggregator(AggregatorConfig{
		Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
		Inject: &faults.InjectorConfig{Seed: 99, DropRate: 0.05, DupRate: 0.04, CorruptRate: 0.04},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	updates := make([][]int32, n)
	want := make([]int32, d)
	for i := range updates {
		updates[i] = make([]int32, d)
		for j := range updates[i] {
			updates[i][j] = int32(i*7 + j%13)
			want[j] += updates[i][j]
		}
	}
	results := make([][]int32, n)
	errs := make([]error, n)
	retx := make([]uint64, n)
	modes := make([]string, n)
	injStats := make([]faults.InjectorStats, n)
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
				RTO:     15 * time.Millisecond,
				Timeout: 20 * time.Second,
				Inject:  &faults.InjectorConfig{Seed: int64(i + 1), DropRate: 0.05, DupRate: 0.04, CorruptRate: 0.04},
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			results[i], errs[i] = c.AllReduceInt32(updates[i])
			retx[i] = c.Stats().Retransmissions
			modes[i] = c.DebugState().NetMode
			injStats[i] = c.inj.Stats()
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
	if retx[0]+retx[1] == 0 {
		t.Error("injector was configured but no retransmissions happened")
	}
	netModes := map[string]bool{}
	for _, m := range []netio.Mode{netio.ModePortable, netio.ModeMmsg, netio.ModeGSO} {
		netModes[m.String()] = true
	}
	checkInjected := func(who, mode string, st faults.InjectorStats) {
		t.Helper()
		if !netModes[mode] {
			t.Errorf("%s net mode = %q, want a netio mode", who, mode)
		}
		if st.Dropped == 0 || st.Duplicated == 0 || st.Corrupted == 0 {
			t.Errorf("%s injector stats %+v: want at least one drop, duplicate and corruption", who, st)
		}
	}
	for i := 0; i < n; i++ {
		checkInjected(fmt.Sprintf("worker %d", i), modes[i], injStats[i])
	}
	checkInjected("aggregator", agg.DebugState(false).NetMode, agg.inj.Stats())
}

// TestFaultUDPWorkerCrashRecovery is the §5.6 failure path over real
// sockets: a ghost worker joins with its initial window and then goes
// silent mid-tensor. The aggregator's detector must evict it, walk
// the survivors through reconfigure/report/resume, and let them
// finish with survivor-only sums past the recovery frontier.
func TestFaultUDPWorkerCrashRecovery(t *testing.T) {
	const n, s, k, d = 3, 4, 32, 4000
	agg, err := NewAggregator(AggregatorConfig{
		Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
		Liveness: &LivenessConfig{SilenceAfter: 250 * time.Millisecond, CheckEvery: 60 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// The ghost: a protocol-correct initial window from worker 2, then
	// silence forever.
	ghostCfg := core.WorkerConfig{ID: 2, Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true}
	ghost, err := core.NewWorker(ghostCfg)
	if err != nil {
		t.Fatal(err)
	}
	ghostU := make([]int32, d)
	for j := range ghostU {
		ghostU[j] = 3
	}
	gconn, err := net.DialUDP("udp", nil, agg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer gconn.Close()
	for _, p := range ghost.Start(ghostU) {
		if _, err := gconn.Write(p.Marshal()); err != nil {
			t.Fatal(err)
		}
	}

	results := make([][]int32, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := make([]int32, d)
			for j := range u {
				u[j] = int32(i + 1)
			}
			c, err := NewClient(ClientConfig{
				Aggregator: agg.Addr().String(),
				Worker: core.WorkerConfig{
					ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
				},
				RTO:     20 * time.Millisecond,
				Timeout: 20 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			results[i], errs[i] = c.AllReduceInt32(u)
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
	}
	if agg.Alive(2) {
		t.Error("ghost worker 2 was not declared failed")
	}
	if !agg.Alive(0) || !agg.Alive(1) {
		t.Error("a survivor was wrongly declared failed")
	}
	if agg.Epoch() == 0 {
		t.Error("job generation was not bumped by recovery")
	}
	// Both survivors converge on the identical tensor: full sums
	// (1+2+3) before the recovery frontier, survivor sums (1+2) after.
	for j := range results[0] {
		if results[0][j] != results[1][j] {
			t.Fatalf("survivors disagree at elem %d: %d vs %d", j, results[0][j], results[1][j])
		}
	}
	boundary := checkBoundary(t, results[0], 6, 3, k)
	if boundary >= d {
		t.Error("no element carries survivor-only sums: recovery never ran")
	}
}

// TestFaultClientBackoffResetOnReceive is the regression test for the
// per-slot backoff reset: any receive that makes the slot progress —
// or shows it idle — must drop the slot back to the base RTO, while a
// receive the state machine ignores must not.
func TestFaultClientBackoffResetOnReceive(t *testing.T) {
	const n, s, k = 2, 2, 4
	// An aggregator nobody talks to, just so the client can dial.
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	c, err := NewClient(ClientConfig{
		Aggregator: agg.Addr().String(),
		Worker: core.WorkerConfig{
			ID: 0, Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	u := make([]int32, 2*k) // two chunks: slots 0 and 1, version 0
	for j := range u {
		u[j] = int32(j)
	}
	c.worker.Start(u)

	// A version-mismatched result is ignored by the state machine; the
	// slot is still pending, so the loss streak is not over.
	c.backoff[0] = 5
	stale := &packet.Packet{Kind: packet.KindResult, Ver: 1, Idx: 0, Off: 0, Vector: make([]int32, k)}
	if _, err := c.handleIncoming(stale, time.Now()); err != nil {
		t.Fatal(err)
	}
	if c.backoff[0] != 5 {
		t.Errorf("ignored result reset backoff: got %d want 5", c.backoff[0])
	}

	// The real result completes the chunk: backoff must reset.
	good := &packet.Packet{Kind: packet.KindResult, Ver: 0, Idx: 0, Off: 0, Vector: make([]int32, k)}
	for j := range good.Vector {
		good.Vector[j] = 2 * int32(j)
	}
	if _, err := c.handleIncoming(good, time.Now()); err != nil {
		t.Fatal(err)
	}
	if c.backoff[0] != 0 {
		t.Errorf("completing result did not reset backoff: got %d want 0", c.backoff[0])
	}

	// A duplicate result for the now-idle slot also resets (the slot
	// has nothing outstanding, so backing off is meaningless).
	c.backoff[0] = 3
	if _, err := c.handleIncoming(good, time.Now()); err != nil {
		t.Fatal(err)
	}
	if c.backoff[0] != 0 {
		t.Errorf("result for idle slot did not reset backoff: got %d want 0", c.backoff[0])
	}
}

// TestFaultUDPHeartbeatKeepsIdleWorkerAlive parks both workers well
// past the silence threshold with only heartbeats flowing; the
// detector must not evict anyone, and a later all-reduce must still
// see full membership.
func TestFaultUDPHeartbeatKeepsIdleWorkerAlive(t *testing.T) {
	const n, s, k, d = 2, 2, 8, 400
	agg, err := NewAggregator(AggregatorConfig{
		Addr: "127.0.0.1:0",
		Switch: core.SwitchConfig{
			Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
		},
		Liveness: &LivenessConfig{SilenceAfter: 150 * time.Millisecond, CheckEvery: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	clients := make([]*Client, n)
	for i := range clients {
		c, err := NewClient(ClientConfig{
			Aggregator: agg.Addr().String(),
			Worker: core.WorkerConfig{
				ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true,
			},
			RTO:       20 * time.Millisecond,
			Timeout:   10 * time.Second,
			Heartbeat: 40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	// Idle for several silence thresholds: only heartbeats flow.
	time.Sleep(500 * time.Millisecond)
	for i := 0; i < n; i++ {
		if !agg.Alive(i) {
			t.Fatalf("idle-but-heartbeating worker %d was evicted", i)
		}
	}
	if agg.Epoch() != 0 {
		t.Fatalf("recovery ran against an idle job: epoch %d", agg.Epoch())
	}

	var wg sync.WaitGroup
	results := make([][]int32, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := make([]int32, d)
			for j := range u {
				u[j] = int32(i + 1)
			}
			results[i], errs[i] = clients[i].AllReduceInt32(u)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for j, v := range results[i] {
			if v != 3 {
				t.Fatalf("worker %d elem %d: got %d want 3", i, j, v)
			}
		}
	}
}
