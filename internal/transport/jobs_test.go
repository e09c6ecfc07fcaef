package transport

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// newMultiJobAgg serves cfg as job ids[0] and admits the rest of ids
// with the same pool configuration.
func newMultiJobAgg(t *testing.T, cfg core.SwitchConfig, ids ...uint16) *Aggregator {
	t.Helper()
	cfg.JobID = ids[0]
	agg, err := NewAggregator(AggregatorConfig{Addr: "127.0.0.1:0", Switch: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	for _, id := range ids[1:] {
		cfg.JobID = id
		if err := agg.AdmitJob(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

// rawWorker is a bare UDP socket standing in for one worker.
func rawWorker(t *testing.T, agg *Aggregator) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, agg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sendRaw(t *testing.T, c *net.UDPConn, p *packet.Packet) {
	t.Helper()
	if _, err := c.Write(p.Marshal()); err != nil {
		t.Fatal(err)
	}
}

// recvPacket reads one datagram, or returns nil once wait passes
// without one.
func recvPacket(t *testing.T, c *net.UDPConn, wait time.Duration) *packet.Packet {
	t.Helper()
	buf := make([]byte, 2048)
	c.SetReadDeadline(time.Now().Add(wait))
	n, err := c.Read(buf)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMultiJobTwoJobs(t *testing.T) {
	agg := newMultiJobAgg(t, core.SwitchConfig{Workers: 2, PoolSize: 4, SlotElems: 8, LossRecovery: true}, 2, 1)
	if got := agg.Jobs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Jobs = %v, want [1 2]", got)
	}

	// Both jobs aggregate concurrently through the same sockets; job 1
	// sums ones, job 2 sums twos — results must never mix.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, job := range []uint16{1, 2} {
		for id := 0; id < 2; id++ {
			job, id := job, id
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := NewClient(ClientConfig{
					Aggregator: agg.Addr().String(),
					Worker: core.WorkerConfig{
						ID: uint16(id), Workers: 2, PoolSize: 4, SlotElems: 8,
						LossRecovery: true, JobID: job,
					},
					RTO: 20 * time.Millisecond,
				})
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				u := make([]int32, 500)
				for j := range u {
					u[j] = int32(job)
				}
				out, err := c.AllReduceInt32(u)
				if err != nil {
					errs <- err
					return
				}
				for j, v := range out {
					if v != 2*int32(job) {
						errs <- errIter{int32(job), int32(j), v, 2 * int32(job)}
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMultiJobRouting interleaves two jobs' contributions to the same
// slot over raw sockets: each job's result carries its own sum and job
// id, reaches its own workers only, and an unknown job gets no answer.
func TestMultiJobRouting(t *testing.T) {
	agg := newMultiJobAgg(t, core.SwitchConfig{Workers: 2, PoolSize: 2, SlotElems: 2, LossRecovery: true}, 1, 2)
	w := [2][2]*net.UDPConn{} // [job-1][worker]
	for j := range w {
		for i := range w[j] {
			w[j][i] = rawWorker(t, agg)
		}
	}
	sendRaw(t, w[0][0], packet.NewUpdate(0, 1, 0, 0, 0, []int32{1, 1}))
	sendRaw(t, w[1][0], packet.NewUpdate(0, 2, 0, 0, 0, []int32{10, 10}))
	sendRaw(t, w[0][1], packet.NewUpdate(1, 1, 0, 0, 0, []int32{2, 2}))
	sendRaw(t, w[1][1], packet.NewUpdate(1, 2, 0, 0, 0, []int32{20, 20}))
	for j, want := range []int32{3, 30} {
		for i := range w[j] {
			r := recvPacket(t, w[j][i], 5*time.Second)
			if r == nil || r.Kind != packet.KindResult || r.JobID != uint16(j+1) || r.Vector[0] != want || r.Vector[1] != want {
				t.Fatalf("job %d worker %d result = %+v, want %d from job %d", j+1, i, r, want, j+1)
			}
			if extra := recvPacket(t, w[j][i], 50*time.Millisecond); extra != nil {
				t.Fatalf("job %d worker %d got a second datagram %+v", j+1, i, extra)
			}
		}
	}
	stray := rawWorker(t, agg)
	sendRaw(t, stray, packet.NewUpdate(0, 9, 0, 0, 0, []int32{1, 1}))
	if r := recvPacket(t, stray, 100*time.Millisecond); r != nil {
		t.Errorf("unknown job produced a response: %+v", r)
	}
}

// TestMultiJobDropsAreCounted pins the shard loop's accounting: every
// well-formed datagram it discards moves exactly one counter by one —
// udp_unroutable_total for an unknown job or an out-of-range worker,
// udp_unexpected_kind_total for control traffic reaching a multi-job
// table — and draws no reply.
func TestMultiJobDropsAreCounted(t *testing.T) {
	agg := newMultiJobAgg(t, core.SwitchConfig{Workers: 2, PoolSize: 2, SlotElems: 2, LossRecovery: true}, 1, 2)
	reg := agg.Registry()
	ctr := func(name string) *telemetry.Counter { return reg.Counter(name, "role", "aggregator") }
	recvd, sent := ctr("udp_datagrams_received_total"), ctr("udp_datagrams_sent_total")
	unroutable, unexpected := ctr("udp_unroutable_total"), ctr("udp_unexpected_kind_total")
	conn := rawWorker(t, agg)

	all := []*telemetry.Counter{recvd, sent, unroutable, unexpected}
	check := func(name string, p *packet.Packet, moved *telemetry.Counter) {
		t.Helper()
		before := make([]uint64, len(all))
		for i, c := range all {
			before[i] = c.Value()
		}
		sendRaw(t, conn, p)
		deadline := time.Now().Add(5 * time.Second)
		for recvd.Value() == before[0] {
			if time.Now().After(deadline) {
				t.Fatalf("%s: datagram never received", name)
			}
			time.Sleep(time.Millisecond)
		}
		if r := recvPacket(t, conn, 50*time.Millisecond); r != nil {
			t.Errorf("%s: drew a reply %+v", name, r)
		}
		for i, c := range all {
			want := before[i]
			if c == recvd || c == moved {
				want++
			}
			if got := c.Value(); got != want {
				t.Errorf("%s: counter %d moved %d → %d, want %d", name, i, before[i], got, want)
			}
		}
	}
	check("unknown job", packet.NewUpdate(0, 9, 0, 0, 0, []int32{1, 1}), unroutable)
	check("worker out of range", packet.NewUpdate(2, 1, 0, 0, 0, []int32{1, 1}), unroutable)
	check("heartbeat with two jobs", packet.NewControl(packet.KindHeartbeat, 0, 1, 0, nil), unexpected)
	check("probe with two jobs", packet.NewControl(packet.KindProbe, 0, 2, 0, nil), unexpected)
	if err := agg.ReleaseJob(2); err != nil {
		t.Fatal(err)
	}
	// A table of one routes every job id to its job, but the worker
	// range still applies.
	check("worker out of range, one job", packet.NewUpdate(2, 9, 0, 0, 0, []int32{1, 1}), unroutable)
	for _, job := range []uint16{1, 2} {
		if st, _ := agg.JobStats(job); st.Updates != 0 {
			t.Errorf("job %d processed %d updates from dropped datagrams", job, st.Updates)
		}
	}
}

func TestMultiJobAdmission(t *testing.T) {
	// A budget of two and a half pools admits two jobs but not three
	// (the §6 admission mechanism).
	cfg := core.SwitchConfig{Workers: 8, PoolSize: 128, SlotElems: 32, LossRecovery: true, JobID: 1}
	one, err := core.NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := one.MemoryBytes()
	agg, err := NewAggregator(AggregatorConfig{Addr: "127.0.0.1:0", Switch: cfg, MemoryBudget: 2*per + per/2})
	if err != nil {
		t.Fatalf("first job rejected: %v", err)
	}
	defer agg.Close()
	cfg.JobID = 2
	if err := agg.AdmitJob(cfg); err != nil {
		t.Fatalf("second job rejected: %v", err)
	}
	cfg.JobID = 3
	if err := agg.AdmitJob(cfg); err == nil {
		t.Fatal("third job admitted beyond the memory budget")
	}
	if got := agg.MemoryBytes(); got != 2*per {
		t.Errorf("MemoryBytes = %d, want %d", got, 2*per)
	}
	if _, ok := agg.JobStats(3); ok {
		t.Error("JobStats found a rejected job")
	}
	if err := agg.ReleaseJob(1); err != nil {
		t.Fatal(err)
	}
	if err := agg.AdmitJob(cfg); err != nil {
		t.Fatalf("job rejected after release: %v", err)
	}
	if got := agg.Jobs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Jobs = %v, want [2 3]", got)
	}
	if err := agg.ReleaseJob(99); err == nil {
		t.Error("releasing unknown job succeeded")
	}
}

func TestMultiAggregatorAdmission(t *testing.T) {
	// A budget of one and a half pools serves the construction job but
	// admits no second one until the first is released.
	cfg := core.SwitchConfig{Workers: 8, PoolSize: 128, SlotElems: 32, LossRecovery: true, JobID: 1}
	one, err := core.NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := one.MemoryBytes()
	agg, err := NewAggregator(AggregatorConfig{Addr: "127.0.0.1:0", Switch: cfg, MemoryBudget: per + per/2})
	if err != nil {
		t.Fatalf("first job rejected: %v", err)
	}
	defer agg.Close()
	cfg.JobID = 2
	if err := agg.AdmitJob(cfg); err == nil {
		t.Fatal("second job admitted beyond the memory budget")
	}
	if err := agg.ReleaseJob(1); err != nil {
		t.Fatal(err)
	}
	if err := agg.AdmitJob(cfg); err != nil {
		t.Fatalf("job rejected after release: %v", err)
	}
	if got := agg.MemoryBytes(); got != per {
		t.Errorf("MemoryBytes = %d, want %d", got, per)
	}
	if err := agg.ReleaseJob(99); err == nil {
		t.Error("releasing unknown job succeeded")
	}
	// A construction job over budget is refused like any other.
	if _, err := NewAggregator(AggregatorConfig{Addr: "127.0.0.1:0", Switch: cfg, MemoryBudget: per / 2}); err == nil {
		t.Error("aggregator built around a job beyond its budget")
	}
}

func TestMultiJobDuplicateAndInvalidJobs(t *testing.T) {
	cfg := core.SwitchConfig{Workers: 1, PoolSize: 1, SlotElems: 1, LossRecovery: true}
	agg := newMultiJobAgg(t, cfg, 5)
	cfg.JobID = 5
	if err := agg.AdmitJob(cfg); err == nil {
		t.Error("duplicate job admitted")
	}
	if err := agg.AdmitJob(core.SwitchConfig{JobID: 8}); err == nil {
		t.Error("invalid config admitted")
	}
	if err := agg.AdmitJob(core.SwitchConfig{Workers: 1, PoolSize: 1, SlotElems: 4096, JobID: 9}); err == nil {
		t.Error("job with packets larger than the shard arenas admitted")
	}
	if got := agg.Jobs(); len(got) != 1 || got[0] != 5 {
		t.Errorf("Jobs = %v after rejected admissions, want [5]", got)
	}
}

func TestMultiAggregatorDuplicateJob(t *testing.T) {
	cfg := core.SwitchConfig{Workers: 1, PoolSize: 1, SlotElems: 1, LossRecovery: true}
	agg := newMultiJobAgg(t, cfg, 5, 6)
	for _, id := range []uint16{5, 6} {
		cfg.JobID = id
		if err := agg.AdmitJob(cfg); err == nil {
			t.Errorf("duplicate job %d admitted", id)
		}
	}
	if got := agg.Jobs(); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("Jobs = %v after duplicate admissions, want [5 6]", got)
	}
	if err := agg.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := agg.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestMultiJobRefusedWithLiveness: generation fences (recovery,
// elastic membership) need the id space of one job, so the table of a
// detector-armed aggregator is fixed.
func TestMultiJobRefusedWithLiveness(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:     "127.0.0.1:0",
		Switch:   core.SwitchConfig{Workers: 2, PoolSize: 2, SlotElems: 2, LossRecovery: true, JobID: 1},
		Liveness: &LivenessConfig{SilenceAfter: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if err := agg.AdmitJob(core.SwitchConfig{Workers: 2, PoolSize: 2, SlotElems: 2, JobID: 2}); err == nil {
		t.Error("AdmitJob succeeded with Liveness set")
	}
	if err := agg.ReleaseJob(1); err == nil {
		t.Error("ReleaseJob succeeded with Liveness set")
	}
	if got := agg.Jobs(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Jobs = %v, want [1]", got)
	}
}
