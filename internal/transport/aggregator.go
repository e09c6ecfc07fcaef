// Package transport runs the SwitchML protocol over real UDP
// sockets. It implements the paper's alternative deployment model
// (§6 "Deployment model"): a software "parameter aggregator" — the
// switch state machine of Algorithm 3 hosted on a server — plus the
// worker endpoint that streams tensors to it.
//
// The wire format is packet.Marshal; corrupted datagrams are dropped
// by the checksum, and loss is repaired by the worker-side
// retransmission timers exactly as on the programmable switch.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// DefaultBatch is the burst ceiling selected when a Batch field is
// left zero: deep enough to amortize the per-wakeup syscall cost,
// shallow enough that one burst's replies fit comfortably in socket
// buffers.
const DefaultBatch = 32

// BatchOccupancyBuckets bound the batch-occupancy histograms:
// datagrams drained per receive wakeup.
var BatchOccupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// AggregatorConfig configures a software aggregator.
type AggregatorConfig struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:5555" or
	// ":5555".
	Addr string
	// Switch is the pool configuration of the job admitted at
	// construction; LossRecovery should be true on any real network.
	// More jobs join the table through AdmitJob. Switch.Now, nil for
	// telemetry.WallClock, must return wall-clock nanoseconds: the
	// shards stamp each receive burst with one reading of it, and the
	// same stamp feeds the liveness tracker.
	Switch core.SwitchConfig
	// MemoryBudget caps the admitted jobs' total register memory in
	// bytes, the admission check of §6 "Multi-job"; zero means
	// unlimited.
	MemoryBudget int
	// Shards is the number of receive goroutines draining the socket,
	// the software analogue of the paper's Flow Director steering
	// (Appendix B: "every CPU core ... uses a disjoint set of
	// aggregation slots"). Zero selects 4. Each shard owns its own
	// SO_REUSEPORT socket where the platform allows, so the kernel
	// itself steers each worker flow to exactly one shard; otherwise
	// the shards share one socket. Per-slot locking inside the sharded
	// switch keeps concurrent handling correct no matter which
	// goroutine a packet lands on.
	Shards int
	// Batch is the per-shard burst ceiling: each shard reads up to
	// Batch datagrams per wakeup (one recvmmsg on Linux), runs every
	// packet to completion, and flushes all replies in one sendmmsg —
	// equal-size result multicasts ride UDP segmentation-offload
	// trains where the kernel supports them. Zero selects 32; 1 runs
	// the same loop one datagram per wakeup. SWITCHML_NO_MMSG=1 forces
	// netio's portable mode, one datagram per syscall.
	Batch int
	// DropResult, when non-nil, is consulted before each result send
	// and drops the packet when it returns true. It exists for loss
	// testing on loopback networks that never drop. The packet is
	// only valid for the duration of the call.
	DropResult func(p *packet.Packet) bool
	// Liveness, when non-nil, enables the failure detector: silent
	// workers are evicted and the survivors are resumed under a new job
	// generation (§5.6). It is also the prerequisite for elastic
	// membership — graceful join and leave need the tracker's
	// draining/departed bookkeeping.
	Liveness *LivenessConfig
	// Absent lists worker ids outside the initial membership: slots
	// reserved in the worker universe (Switch.Workers) for hosts that
	// will join later through the graceful-join fence. Requires
	// Liveness.
	Absent []int
	// Inject, when non-nil, applies seeded loss, duplication and
	// corruption to outgoing result datagrams — chaos testing on
	// loopback networks that never misbehave. Verdicts are applied
	// while staging on the shard's netio view, so injected traffic
	// takes the production send path. Control datagrams
	// (reconfig/resume) are sent clean; on a real network they are
	// protected by the sweep-period rebroadcast instead.
	Inject *faults.InjectorConfig
	// Metrics receives the aggregator's counters (datagram traffic and
	// the switch protocol counters). Nil allocates a private registry,
	// available through Registry.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, observes protocol events stamped with
	// wall-clock nanoseconds.
	Tracer telemetry.Tracer
}

// Aggregator is a UDP server hosting a table of jobs' aggregation
// pools (jobs.go) — usually one. It learns worker addresses from the
// source of their update packets, so no registration step is needed;
// a worker must send before it can receive, which the protocol
// guarantees.
//
// N shard goroutines drain the socket concurrently; each owns its
// receive buffer, decoded packet, response packet and wire buffer, so
// the steady-state datagram path performs no heap allocation. Worker
// addresses live in an atomic table (compare-before-store keeps the
// common case write-free), the liveness tracker is internally atomic,
// and the recovery state machine — the only cross-shard state — is
// guarded by mu and touched only on control traffic.
type Aggregator struct {
	cfg  AggregatorConfig
	conn *net.UDPConn
	// conns are every socket bound to the listen address: just conn,
	// or one SO_REUSEPORT socket per shard where the platform allows.
	// conn == conns[0] always; the control plane sends on it.
	conns []*net.UDPConn
	// jobs is the job table, ascending by id: swapped copy-on-write
	// under mu, loaded once per burst by the shard loops.
	jobs atomic.Pointer[[]*aggJob]
	reg  *telemetry.Registry
	// netMode names the netio mode the shard loops run (portable,
	// mmsg or gso). Written once before the serving goroutines start.
	netMode string

	recvd, corrupt, sent *telemetry.Counter
	// unexpected counts well-formed datagrams whose kind the serve
	// loops do not dispatch (workers never originate result/reconfig/
	// resume kinds); a nonzero value means a peer is confused or a new
	// kind is missing its arm.
	unexpected *telemetry.Counter
	// unroutable counts well-formed datagrams for no admitted job, or
	// from a worker id outside their job's universe.
	unroutable *telemetry.Counter
	// sendErrs counts result/control datagrams whose socket send
	// failed. UDP stays best-effort — the protocol's loss recovery
	// owns repair — but a non-zero rate points at dead routes or
	// misconfiguration, so it is surfaced instead of discarded.
	sendErrs *telemetry.Counter
	// shards are the shard working sets, read by introspection only
	// through their atomic counters, histograms and netio counters.
	shards []*aggShard

	inj *faults.PacketInjector

	// down simulates the aggregation program dying while the host and
	// its address stay up: every datagram is silently discarded, so
	// workers see pure silence — the failure mode the client-side
	// fallback detects. Toggled by SetDown from chaos tests.
	down atomic.Bool
	// epoch is the current job generation; read lock-free on the
	// per-packet path, written under mu by recovery.
	epoch atomic.Uint32

	mu sync.Mutex // guards the recovery state machine (lv) and job table swaps
	lv *liveness  // nil unless cfg.Liveness is set

	// Warm-standby adoption state (failover.go), guarded by mu: adopt
	// is the open roll call; adoptGen/adoptFrontier/adoptDone record
	// the last committed adoption so a lost release is re-sent on a
	// duplicate request. adoptions counts committed adoptions.
	adopt         *adoptFence
	adoptGen      uint16
	adoptFrontier uint64
	adoptDone     bool
	adoptions     *telemetry.Counter

	wg     sync.WaitGroup
	closed chan struct{}
}

// aggShard is one receive goroutine's private working set: with it,
// the datagram-in/datagrams-out cycle touches no shared mutable
// memory beyond the slot being aggregated.
type aggShard struct {
	pkt     packet.Packet // decoded request (vector storage reused)
	out     packet.Packet // response storage for HandleInto
	wire    []byte        // marshalled response
	ctrl    []byte        // marshalled control reply (reconfig/resume)
	mangled []byte        // injector corruption scratch
	// datagrams is this shard's share of the drain load (atomic; one
	// captured pointer, so counting stays allocation-free).
	datagrams *telemetry.Counter

	// nc is the shard's batched socket view; occ its burst-occupancy
	// histogram. block accumulates the burst's equal-size multicast
	// results so one flush sends the same bytes to every peer as a
	// segment train (the completed results of a burst are identical
	// for all workers, so the block is built once and addressed W
	// times); blockJob is the job whose peers it goes to.
	nc       *netio.Conn
	occ      *telemetry.Histogram
	block    []byte
	blockSeg int
	blockJob *aggJob
}

// NewAggregator admits the configured job, binds the socket(s) and
// starts the serving goroutines.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if len(cfg.Absent) > 0 && cfg.Liveness == nil {
		return nil, fmt.Errorf("transport: Absent workers need Liveness (elastic membership rides on the failure detector)")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a := &Aggregator{
		cfg:        cfg,
		reg:        reg,
		recvd:      reg.Counter("udp_datagrams_received_total", "role", "aggregator"),
		corrupt:    reg.Counter("udp_datagrams_corrupted_total", "role", "aggregator"),
		sent:       reg.Counter("udp_datagrams_sent_total", "role", "aggregator"),
		sendErrs:   reg.Counter("udp_send_errors_total", "role", "aggregator"),
		unexpected: reg.Counter("udp_unexpected_kind_total", "role", "aggregator"),
		unroutable: reg.Counter("udp_unroutable_total", "role", "aggregator"),
		adoptions:  reg.Counter("failover_adoptions_total", "role", "aggregator"),
		closed:     make(chan struct{}),
	}
	a.jobs.Store(&[]*aggJob{})
	job, err := a.admitLocked(cfg.Switch)
	if err != nil {
		return nil, err
	}
	if cfg.Inject != nil {
		a.inj, err = faults.NewPacketInjector(*cfg.Inject)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Liveness != nil {
		lc := *cfg.Liveness
		lc.fillDefaults()
		a.lv = &liveness{
			cfg:       lc,
			job:       job,
			tracker:   faults.NewTracker(cfg.Switch.Workers, int64(lc.SilenceAfter)),
			reported:  make([]bool, cfg.Switch.Workers),
			leavePend: make([]bool, cfg.Switch.Workers),
			leaveOff:  make([]uint64, cfg.Switch.Workers),
			maxOff:    make([]atomic.Uint64, cfg.Switch.Workers),
		}
		if len(cfg.Absent) > 0 {
			active := make([]bool, cfg.Switch.Workers)
			for i := range active {
				active[i] = true
			}
			for _, w := range cfg.Absent {
				if w < 0 || w >= cfg.Switch.Workers {
					return nil, fmt.Errorf("transport: absent worker %d out of range [0,%d)", w, cfg.Switch.Workers)
				}
				// Departed, not dead: the slot is empty by intent, and
				// the graceful-join fence is how it gets filled.
				a.lv.tracker.MarkDeparted(w)
				active[w] = false
			}
			if err := job.sw.Reconfigure(active, cfg.Switch.JobID); err != nil {
				return nil, err
			}
		}
	}
	conns, err := bindAggSockets(cfg.Addr, cfg.Shards)
	if err != nil {
		return nil, err
	}
	a.conn, a.conns = conns[0], conns
	if a.lv != nil {
		a.wg.Add(1)
		go a.sweepLoop()
	}
	mtu := aggWireMTU(cfg.Switch.SlotElems)
	for i := 0; i < cfg.Shards; i++ {
		nc, werr := netio.Wrap(conns[i%len(conns)], netio.Config{
			Batch:       cfg.Batch,
			MTU:         mtu,
			OnSendError: func(err error, n int) { a.sendErrs.Add(uint64(n)) },
		})
		if werr != nil {
			// A socket that cannot even expose its fd is broken; stop
			// the sweeper and any shard already serving.
			close(a.closed)
			closeAll(conns)
			a.wg.Wait()
			return nil, werr
		}
		sh := &aggShard{
			datagrams: reg.Counter("agg_shard_datagrams_total", "shard", fmt.Sprintf("%d", i)),
			nc:        nc,
			occ:       reg.Histogram("agg_batch_occupancy", BatchOccupancyBuckets, "shard", fmt.Sprintf("%d", i)),
			block:     make([]byte, 0, cfg.Batch*mtu),
		}
		a.shards = append(a.shards, sh)
		a.netMode = nc.Mode().String()
		a.wg.Add(1)
		go a.serve(sh)
	}
	return a, nil
}

// aggWireMTU sizes shard arenas from the largest result packet the
// pool can emit.
func aggWireMTU(slotElems int) int {
	probe := packet.Packet{Vector: make([]int32, slotElems)}
	if m := probe.MarshalledSize() + 16; m > 2048 {
		return m
	}
	return 2048
}

// closeAll releases every bound socket.
func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// bindAggSockets binds the listen address. With more than one shard
// it tries one SO_REUSEPORT socket per shard first — the kernel then
// steers each worker flow to exactly one shard socket, the closest
// software analogue of NIC receive-side steering — and falls back to
// a single shared socket where REUSEPORT is unavailable.
func bindAggSockets(addr string, shards int) ([]*net.UDPConn, error) {
	if shards > 1 {
		lc := net.ListenConfig{Control: netio.ControlReusePort}
		if pc, err := lc.ListenPacket(context.Background(), "udp", addr); err == nil {
			conns := []*net.UDPConn{pc.(*net.UDPConn)}
			bound := conns[0].LocalAddr().String()
			ok := true
			for i := 1; i < shards; i++ {
				extra, err := lc.ListenPacket(context.Background(), "udp", bound)
				if err != nil {
					ok = false
					break
				}
				conns = append(conns, extra.(*net.UDPConn))
			}
			if ok {
				return conns, nil
			}
			closeAll(conns)
		}
	}
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ra)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return []*net.UDPConn{conn}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (a *Aggregator) Addr() *net.UDPAddr { return a.conn.LocalAddr().(*net.UDPAddr) }

// Registry returns the metrics registry backing this aggregator's
// counters — the one from the config, or the private registry
// allocated when none was supplied.
func (a *Aggregator) Registry() *telemetry.Registry { return a.reg }

// Stats returns the switch state machine counters of a one-job
// table's job (the zero value with any other job count; see
// JobStats). The counters are atomic, so this is safe to call
// concurrently with the serving goroutines — no lock is taken and
// packet handling is never stalled by monitoring reads.
func (a *Aggregator) Stats() core.SwitchStats {
	if j := a.solo(); j != nil {
		return j.sw.Stats()
	}
	return core.SwitchStats{}
}

// Close shuts the server down and waits for the serving goroutines.
func (a *Aggregator) Close() error {
	select {
	case <-a.closed:
		return nil
	default:
	}
	close(a.closed)
	err := a.conn.Close()
	for _, c := range a.conns[1:] {
		c.Close()
	}
	a.wg.Wait()
	return err
}

// serve is one shard's run-to-completion loop — the software
// analogue of one pipeline of the switch: up to cfg.Batch datagrams
// drained per wakeup (one recvmmsg on Linux, with
// GRO coalescing where the kernel offers it), every packet run to
// completion against the shard's private arena with zero channel hops,
// and all replies flushed in one sendmmsg — the burst's equal-size
// multicast results riding a single segmentation-offload train per
// peer. Control handlers (join/leave/report/heartbeat) send
// immediately on the control socket; the update/result path and the
// shard's own replies are staged. Each burst routes against one job
// table snapshot, so a concurrent ReleaseJob cannot pull a job out
// from under a handler, and reads its job's clock once: every packet
// of the burst is stamped with that reading (a multi-job burst reads
// again only where the routed job changes).
func (a *Aggregator) serve(sh *aggShard) {
	defer a.wg.Done()
	for {
		n, err := sh.nc.Recv()
		if err != nil {
			select {
			case <-a.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient error: keep serving
		}
		sh.occ.Observe(float64(n))
		a.recvd.Add(uint64(n))
		sh.datagrams.Add(uint64(n))
		if a.down.Load() {
			continue // the aggregation program is "dead": pure silence
		}
		tab := a.table()
		var now int64
		var clock *aggJob // the job whose clock produced now
		for i := 0; i < n; i++ {
			m := &sh.nc.Msgs[i]
			if err := packet.UnmarshalInto(&sh.pkt, m.Buf); err != nil {
				a.corrupt.Inc()
				continue // corrupted datagram: drop (§3.4)
			}
			j := route(tab, sh.pkt.JobID)
			if j == nil || int(sh.pkt.WorkerID) >= len(j.peers) {
				a.unroutable.Inc()
				continue
			}
			if len(tab) > 1 && sh.pkt.Kind != packet.KindUpdate {
				// Control planes fence generations, which need the id
				// space of one job.
				a.unexpected.Inc()
				continue
			}
			if j != clock {
				now, clock = j.now(), j
			}
			//switchml:dispatch
			switch sh.pkt.Kind {
			case packet.KindUpdate:
				a.handleUpdate(sh, j, m.Addr, now)
			case packet.KindHeartbeat:
				a.touch(&sh.pkt, m.Addr, now)
			case packet.KindReport:
				a.handleReport(&sh.pkt, m.Addr)
			case packet.KindProbe:
				a.handleProbe(sh, j, m.Addr, now)
			case packet.KindJoin:
				a.handleJoin(&sh.pkt, m.Addr)
			case packet.KindLeave:
				a.handleLeave(&sh.pkt, m.Addr)
			case packet.KindAdoptJob:
				a.handleAdopt(sh, j, m.Addr)
			default:
				// Workers never originate result/reconfig/resume kinds;
				// count the drop so a confused peer is visible.
				a.unexpected.Inc()
			}
		}
		a.flushShard(sh)
	}
}

// stageMulticast accumulates the burst's multicast results. Completed
// slot results are byte-identical for every worker, so the shard
// builds the block once and flushShard addresses it to each peer as
// one segment train. A job switch, a segment-size change or a full
// block flushes eagerly — correctness never depends on the burst
// boundary.
//
//switchml:hotpath
func (a *Aggregator) stageMulticast(sh *aggShard, j *aggJob) {
	if sh.blockSeg != 0 && (sh.blockJob != j || sh.blockSeg != len(sh.wire) || len(sh.block)+len(sh.wire) > cap(sh.block)) {
		a.flushShard(sh)
	}
	sh.blockSeg = len(sh.wire)
	sh.blockJob = j
	sh.block = append(sh.block, sh.wire...) //switchml:allow hotpath -- append into a fixed-capacity block; the flush above guarantees room

}

// flushShard fans the accumulated multicast block out to every known
// peer of its job as a segment train and pushes all staged datagrams
// to the kernel in one batched send.
//
//switchml:hotpath
func (a *Aggregator) flushShard(sh *aggShard) {
	if len(sh.block) > 0 {
		segs := uint64((len(sh.block) + sh.blockSeg - 1) / sh.blockSeg)
		peers := sh.blockJob.peers
		for i := range peers {
			if ap := peers[i].Load(); ap != nil {
				sh.nc.AppendTrain(sh.block, sh.blockSeg, *ap)
				a.sent.Add(segs)
			}
		}
	}
	sh.nc.Flush()
	// Reset only after Flush returns: in GSO mode the staged train
	// sends directly from sh.block's storage, so the block must stay
	// untouched until the kernel has copied it out.
	sh.block = sh.block[:0]
	sh.blockSeg = 0
	sh.blockJob = nil
}

// reply stages a control datagram back to a packet's source on the
// shard's batched socket (AppendTo copies the payload, so the shard's
// ctrl scratch can be reused immediately).
func (a *Aggregator) reply(sh *aggShard, wire []byte, to netip.AddrPort) {
	sh.nc.AppendTo(wire, to)
	a.sent.Inc()
}

// writeCtrl sends one control datagram on the shared socket. Failures
// are counted, not retried: UDP control traffic is already protected
// by the sweep-period rebroadcast and worker retransmission.
func (a *Aggregator) writeCtrl(wire []byte, to netip.AddrPort) {
	if _, err := a.conn.WriteToUDPAddrPort(wire, to); err != nil {
		a.sendErrs.Inc()
		return
	}
	a.sent.Inc()
}

// epochNow returns the current job generation.
func (a *Aggregator) epochNow() uint16 { return uint16(a.epoch.Load()) }

// handleUpdate feeds one model-update into its job's pool. With a
// liveness detector attached it also polices membership: traffic from
// a retired worker is answered with the reconfigure directive (so a
// merely-slow worker learns it was evicted and can fail fast), and
// stale-generation traffic from a live worker means the resume
// directive was lost — it is re-sent instead of feeding the pool.
// The clean path — touch the tracker, aggregate, reply — takes no
// lock beyond the packet's slot. now is the burst's clock stamp.
func (a *Aggregator) handleUpdate(sh *aggShard, j *aggJob, src netip.AddrPort, now int64) {
	p := &sh.pkt
	w := int(p.WorkerID)
	if a.lv != nil {
		if a.lv.tracker.Dead(w) {
			a.mu.Lock()
			vec := a.survivorsLocked()
			a.mu.Unlock()
			sh.ctrl = packet.NewControl(packet.KindReconfig, p.WorkerID, a.epochNow(), 0, vec).AppendMarshal(sh.ctrl[:0])
			a.reply(sh, sh.ctrl, src)
			return
		}
		a.lv.tracker.Touch(w, now)
		if a.lv.leaveArmed.Load() {
			// A drain is pending: this update is the progress evidence
			// its commit waits on (elastic.go).
			a.lv.bumpMaxOff(w, p.Off)
		}
		if p.JobID != a.epochNow() && a.lv.resumeReady.Load() {
			sh.ctrl = packet.NewControl(packet.KindResume, p.WorkerID, a.epochNow(), a.lv.frontier.Load(), nil).AppendMarshal(sh.ctrl[:0])
			a.reply(sh, sh.ctrl, src)
			return
		}
	}
	j.setPeer(p.WorkerID, src)
	resp := j.sw.HandleIntoAt(p, &sh.out, now)
	if resp.Pkt == nil {
		return
	}
	if a.cfg.DropResult != nil && a.cfg.DropResult(resp.Pkt) {
		return
	}
	sh.wire = resp.Pkt.AppendMarshal(sh.wire[:0])
	if resp.Multicast {
		if a.inj == nil {
			a.stageMulticast(sh, j)
			return
		}
		for i := range j.peers {
			if ap := j.peers[i].Load(); ap != nil {
				a.stageResult(sh, *ap)
			}
		}
		return
	}
	if int(resp.Pkt.WorkerID) < len(j.peers) {
		if ap := j.peers[resp.Pkt.WorkerID].Load(); ap != nil {
			a.stageResult(sh, *ap)
		}
	}
}

// handleProbe answers a degraded worker asking whether the aggregator
// is back. The probe carries the generation the workers will fail
// back under; seeing a newer generation than our own means an outage
// happened (possibly a restart that lost the bump), so the pool is
// wiped under the proposed generation before answering — the fence
// that keeps anything aggregated before the outage from leaking into
// post-failback slots. The ack echoes the probe sequence so the
// worker can match it to its probation window.
func (a *Aggregator) handleProbe(sh *aggShard, j *aggJob, src netip.AddrPort, now int64) {
	p := &sh.pkt
	if a.lv != nil {
		if a.lv.tracker.Dead(int(p.WorkerID)) {
			return
		}
		// Probes are liveness: a worker on the mesh is silent on the
		// update path but very much alive.
		a.lv.tracker.Touch(int(p.WorkerID), now)
	}
	j.setPeer(p.WorkerID, src)
	if int16(p.JobID-a.epochNow()) > 0 {
		a.mu.Lock()
		// A job admitted since this burst's table snapshot freezes
		// generations (jobs.go); the table cannot change under mu.
		if prop := p.JobID; int16(prop-a.epochNow()) > 0 && a.solo() == j {
			if j.sw.Reconfigure(nil, prop) == nil {
				a.epoch.Store(uint32(prop))
				a.traceCtrl(telemetry.EvReconfigure, int32(p.WorkerID), int64(prop))
			}
		}
		a.mu.Unlock()
	}
	ack := packet.NewControl(packet.KindProbeAck, p.WorkerID, a.epochNow(), 0, nil)
	ack.Idx = p.Idx
	sh.ctrl = ack.AppendMarshal(sh.ctrl[:0])
	a.reply(sh, sh.ctrl, src)
}

// SetDown "kills" (or revives) the aggregation program while the
// socket stays bound: every inbound datagram is silently discarded,
// exactly what workers observe when the switch program dies under a
// live crossbar. Chaos tests drive it; revival needs no state reset —
// the probe fence wipes the pool under a fresh generation before any
// worker fails back.
func (a *Aggregator) SetDown(down bool) { a.down.Store(down) }

// stageResult stages the shard's marshalled result datagram for one
// peer, under the fault injector's verdict when one is configured: a
// drop is not staged, a corruption stages a mangled copy, a duplicate
// is staged twice. Each peer gets its own verdict, so injected
// multicasts are staged per peer rather than as one shared segment
// train.
func (a *Aggregator) stageResult(sh *aggShard, peer netip.AddrPort) {
	out, copies := sh.wire, 1
	if a.inj != nil {
		switch a.inj.Judge() {
		case faults.Drop:
			return
		case faults.Corrupt:
			// The multicast loop shares sh.wire across peers; mangle a
			// shard-local copy.
			sh.mangled = append(sh.mangled[:0], out...)
			a.inj.Mangle(sh.mangled)
			out = sh.mangled
		case faults.Duplicate:
			copies = 2
		}
	}
	for i := 0; i < copies; i++ {
		sh.nc.AppendTo(out, peer)
		a.sent.Inc()
	}
}

// Reset clears every job's aggregation pool and forgets worker
// addresses, preparing the aggregator for a restarted job (§3.2:
// worker failures are handled by the framework restarting the job).
// In-flight datagrams from the dead job are rejected by the fresh
// state.
func (a *Aggregator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, j := range a.table() {
		j.sw.Reset()
		for i := range j.peers {
			j.peers[i].Store(nil)
		}
	}
	a.adopt = nil
	a.adoptGen, a.adoptFrontier, a.adoptDone = 0, 0, false
	if a.lv != nil {
		// Back to "never seen" for every worker, so a host that does
		// not rejoin the restarted job is simply ignored rather than
		// suspected.
		a.lv.tracker.Reset()
		for i := range a.lv.reported {
			a.lv.reported[i] = false
			a.lv.leavePend[i] = false
			a.lv.leaveOff[i] = 0
			a.lv.maxOff[i].Store(0)
		}
		a.lv.fence = nil
		a.lv.leaveArmed.Store(false)
		a.lv.recovering = false
		a.lv.resumeReady.Store(false)
		a.lv.frontier.Store(0)
	}
}
