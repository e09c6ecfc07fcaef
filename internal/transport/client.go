package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// ClientConfig configures a worker endpoint.
type ClientConfig struct {
	// Aggregator is the UDP address of the software aggregator (or a
	// SwitchML-speaking switch).
	Aggregator string
	// Standbys ranks warm-standby aggregators behind the primary: the
	// failover ladder's middle rungs. When the silence detector trips,
	// the job is re-homed to the first answering rung through the
	// KindAdoptJob handshake (failover.go) instead of degrading
	// straight to the host mesh; the mesh remains the rung of last
	// resort (and needs Fallback configured). Every standby must run
	// the same SwitchConfig as the primary.
	Standbys []string
	// JitterSeed seeds the ±10% spread applied to the heartbeat, probe
	// and adoption-retransmission timers, so a fleet of workers does
	// not synchronize its control traffic against a recovering
	// aggregator. Zero derives a deterministic seed from the worker id;
	// replay harnesses set it explicitly.
	JitterSeed int64
	// Worker is the protocol configuration; it must agree with the
	// aggregator's SwitchConfig on Workers, PoolSize, SlotElems and
	// LossRecovery.
	Worker core.WorkerConfig
	// RTO is the retransmission timeout; zero selects 50 ms, generous
	// for a LAN (the paper's testbed uses 1 ms; over real kernels a
	// larger value avoids spurious retransmissions under scheduling
	// jitter).
	RTO time.Duration
	// AdaptiveRTO estimates the path RTT from clean (never
	// retransmitted — Karn's rule) chunk round trips and uses
	// SRTT + 4·RTTVAR as the base timeout, clamped to [RTO, 64×RTO].
	// The configured RTO then acts as a floor rather than the
	// operating point, so one setting serves both loopback and a
	// congested fabric.
	AdaptiveRTO bool
	// Fallback, when non-nil, arms the degraded mode: an aggregator
	// silent past FallbackConfig.SuspectAfter is abandoned mid-tensor
	// at the chunk frontier and the job continues by ring all-reduce
	// over a worker-to-worker UDP mesh, failing back automatically
	// once probes are answered again (see fallback.go).
	Fallback *FallbackConfig
	// Timeout bounds one AllReduce call; zero selects 30 s.
	Timeout time.Duration
	// Heartbeat, when positive, starts a background beacon at this
	// period so an aggregator-side failure detector does not mistake a
	// worker idle between tensors for a dead one. Leave zero when the
	// aggregator has no Liveness configured.
	Heartbeat time.Duration
	// Batch is the I/O burst ceiling: update sends accumulate into a
	// window block flushed as one batched write (one sendmmsg — a
	// single segmentation-offload train where the kernel supports it),
	// and each receive wakeup drains up to Batch result datagrams in
	// one recvmmsg. Zero selects 32; 1 runs the same path one datagram
	// per flush and wakeup. SWITCHML_NO_MMSG=1 forces netio's portable
	// mode, one datagram per syscall.
	Batch int
	// Inject, when non-nil, applies seeded loss, duplication and
	// corruption to outgoing update datagrams — chaos testing on
	// loopback networks that never misbehave. Verdicts are applied
	// while staging into the window train, so injected traffic takes
	// the production send path. Control datagrams (report/heartbeat)
	// are sent clean.
	Inject *faults.InjectorConfig
	// Metrics receives the worker protocol and datagram counters. Nil
	// allocates a private registry, available through Registry.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, observes protocol events stamped with
	// wall-clock nanoseconds.
	Tracer telemetry.Tracer
}

// Client is a synchronous SwitchML worker over UDP. It is not safe
// for concurrent use: one AllReduce runs at a time, matching the
// ordered-tensor requirement of the stream protocol (Appendix B).
type Client struct {
	cfg    ClientConfig
	conn   *net.UDPConn
	worker *core.Worker
	reg    *telemetry.Registry
	actor  string
	inj    *faults.PacketInjector

	recvd, corrupt, sent *telemetry.Counter
	// unexpected counts well-formed datagrams whose kind the worker
	// never dispatches (aggregators never send update/report/
	// heartbeat kinds).
	unexpected *telemetry.Counter
	// sendErrs counts datagrams whose socket send failed (batched
	// flushes report per-datagram through netio's OnSendError).
	sendErrs *telemetry.Counter
	// chunkRTT observes clean (never-retransmitted) chunk round trips,
	// the per-chunk latency view of §7's RTT analysis.
	chunkRTT *telemetry.Histogram
	// Monitoring gauges, written by the AllReduce goroutine at safe
	// points (RTT samples, sweeps, tensor and recovery boundaries) and
	// read lock-free by DebugState and the sampler. They exist because
	// the underlying state (srtt, frontier, pending set) belongs to
	// the AllReduce goroutine and must not be read directly.
	gSRTT, gRTO, gFrontier, gPending, gEpoch, gDegraded *telemetry.Gauge
	// gHome publishes the failover-ladder rung serving the job (0 =
	// primary); the failover counters track re-homes, adoption
	// solicitations, fail-up probes/acks and completed failbacks.
	gHome                                                             *telemetry.Gauge
	failRehomes, failAdopts, failProbes, failProbeAcks, failFailbacks *telemetry.Counter

	// lastSend tracks per-slot transmission times for timeout sweeps
	// and RTT samples. A send is stamped with the clock reading of the
	// wakeup that staged it, not at its own flush, so a stamp can be
	// early by one burst's handling time.
	lastSend []time.Time
	// rbuf/rp/sbuf/cbuf are the control-plane receive buffer, decoded
	// packet, send wire buffer and control wire buffer, reused across
	// datagrams so the steady-state AllReduce loop performs no heap
	// allocation. They belong to the AllReduce goroutine (the client
	// is documented as not safe for concurrent use).
	rbuf []byte
	rp   packet.Packet
	sbuf []byte
	cbuf []byte
	// nc is the batched socket view over conn: every update send and
	// result receive goes through it. txb accumulates marshalled
	// updates of txSeg bytes each — the window pump — flushed as one
	// segment train by flushTx. stageErr carries the first send
	// failure out of netio's OnSendError callback (which fires on the
	// AllReduce goroutine, inside Flush) to the next flushTx caller.
	nc       *netio.Conn
	txb      []byte
	txSeg    int
	stageErr error
	// backoff counts consecutive timeouts per slot; the effective RTO
	// doubles with each (capped at 64x), preventing retransmission
	// storms when the configured RTO sits below the path RTT.
	backoff []uint8
	// retxed marks slots whose in-flight chunk has been retransmitted:
	// their round trips are ambiguous and excluded from the RTT
	// estimator (Karn's rule).
	retxed []bool
	// srtt/rttvar are the Jacobson estimator state when AdaptiveRTO is
	// on; srtt == 0 means no sample yet.
	srtt, rttvar time.Duration
	// lastProgress is the last time the aggregator proved it was alive
	// (any decodable datagram on the main connection); the fallback's
	// silence detector measures from it.
	lastProgress time.Time
	// epoch is the job generation last adopted from a resume
	// directive; it dedups repeated directives for the same recovery.
	epoch uint16
	// fb is the degraded-mode state; nil unless cfg.Fallback is set.
	fb *fallback
	// Elastic-membership state (elastic_client.go): fenceArmed/fenceGen
	// record a proposed membership change to hold for at the next
	// tensor boundary; drained means Drain completed and every later
	// AllReduce fails fast; stateProvider is the model snapshot served
	// to joiners over the mesh; mbuf/mp are the mesh-serving receive
	// buffer and decoded packet. All belong to the AllReduce goroutine.
	fenceArmed    bool
	fenceGen      uint16
	drained       bool
	stateProvider func() []int32
	mbuf          []byte
	mp            packet.Packet

	// Warm-standby failover state (failover.go). ladder holds the
	// resolved aggregator addresses in preference order (rank 0 is the
	// primary, then cfg.Standbys); homeRank is the rung currently
	// serving the job. upSeq/upAwait/upStreak run the fail-up
	// probation against rank 0 while the job lives on a standby, over
	// the dedicated upConn socket. frng jitters the AllReduce
	// goroutine's control timers (the heartbeat goroutine seeds its
	// own stream). All belong to the AllReduce goroutine except the
	// atomics: hbConn is the heartbeat goroutine's view of the main
	// connection, swapped on re-home; upConn and ncDbg are also read
	// by Close and DebugState; retiredRetries accumulates the send
	// retries of batched views retired by re-homes.
	ladder         []*net.UDPAddr
	homeRank       int
	upSeq          uint32
	upAwait        bool
	upStreak       int
	frng           *rand.Rand
	hbConn         atomic.Pointer[net.UDPConn]
	upConn         atomic.Pointer[net.UDPConn]
	ncDbg          atomic.Pointer[netio.Conn]
	retiredRetries atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewClient binds a local UDP socket and prepares the worker state
// machine.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.RTO == 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cfg.Worker.Metrics = reg
	w, err := core.NewWorker(cfg.Worker)
	if err != nil {
		return nil, err
	}
	raddr, err := net.ResolveUDPAddr("udp", cfg.Aggregator)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", cfg.Aggregator, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	ladder := []*net.UDPAddr{raddr}
	for i, s := range cfg.Standbys {
		sa, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: resolve standby %d %q: %w", i, s, err)
		}
		ladder = append(ladder, sa)
	}
	var inj *faults.PacketInjector
	if cfg.Inject != nil {
		inj, err = faults.NewPacketInjector(*cfg.Inject)
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	id := fmt.Sprintf("%d", cfg.Worker.ID)
	c := &Client{
		cfg:        cfg,
		conn:       conn,
		worker:     w,
		reg:        reg,
		actor:      "w" + id,
		inj:        inj,
		recvd:      reg.Counter("udp_datagrams_received_total", "role", "worker", "worker", id),
		corrupt:    reg.Counter("udp_datagrams_corrupted_total", "role", "worker", "worker", id),
		sent:       reg.Counter("udp_datagrams_sent_total", "role", "worker", "worker", id),
		sendErrs:   reg.Counter("udp_send_errors_total", "role", "worker", "worker", id),
		unexpected: reg.Counter("udp_unexpected_kind_total", "role", "worker", "worker", id),
		chunkRTT:   reg.Histogram("worker_chunk_rtt_ns", telemetry.LatencyBuckets, "worker", id),
		gSRTT:      reg.Gauge("worker_srtt_ns", "worker", id),
		gRTO:       reg.Gauge("worker_rto_ns", "worker", id),
		gFrontier:  reg.Gauge("worker_frontier_off", "worker", id),
		gPending:   reg.Gauge("worker_pending_chunks", "worker", id),
		gEpoch:     reg.Gauge("worker_epoch", "worker", id),
		gDegraded:  reg.Gauge("worker_degraded", "worker", id),
		gHome:      reg.Gauge("worker_home_rank", "worker", id),
		lastSend:   make([]time.Time, cfg.Worker.PoolSize),
		rbuf:       make([]byte, 65536),
		backoff:    make([]uint8, cfg.Worker.PoolSize),
		retxed:     make([]bool, cfg.Worker.PoolSize),
		epoch:      cfg.Worker.JobID,
		ladder:     ladder,
		frng:       rand.New(rand.NewSource(jitterSeed(&cfg, 1))),
		closed:     make(chan struct{}),
	}
	c.failRehomes = reg.Counter("failover_rehomes_total", "worker", id)
	c.failAdopts = reg.Counter("failover_adopt_requests_total", "worker", id)
	c.failProbes = reg.Counter("failover_probes_total", "worker", id)
	c.failProbeAcks = reg.Counter("failover_probe_acks_total", "worker", id)
	c.failFailbacks = reg.Counter("failover_failbacks_total", "worker", id)
	c.hbConn.Store(conn)
	if err := c.wrapMain(conn); err != nil {
		conn.Close()
		return nil, err
	}
	if cfg.Fallback != nil {
		fc := *cfg.Fallback
		fc.fillDefaults(cfg.RTO)
		var laddr *net.UDPAddr
		if fc.Listen != "" {
			laddr, err = net.ResolveUDPAddr("udp", fc.Listen)
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("transport: mesh listen address: %w", err)
			}
		}
		mesh, err := net.ListenUDP("udp", laddr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: bind mesh socket: %w", err)
		}
		c.fb = &fallback{cfg: fc, mesh: mesh}
		if err := c.fb.resolvePeers(fc.Peers, int(cfg.Worker.ID)); err != nil {
			mesh.Close()
			conn.Close()
			return nil, err
		}
		c.fb.nc, err = netio.Wrap(mesh, netio.Config{
			Batch: cfg.Batch,
			MTU:   aggWireMTU(fc.SegElems),
			OnSendError: func(err error, n int) {
				c.sendErrs.Add(uint64(n))
			},
		})
		if err != nil {
			mesh.Close()
			conn.Close()
			return nil, fmt.Errorf("transport: batched mesh socket view: %w", err)
		}
	}
	c.gRTO.Set(int64(cfg.RTO))
	c.gEpoch.Set(int64(cfg.Worker.JobID))
	if cfg.Heartbeat > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// Close stops the heartbeat beacon and releases the sockets. The
// main connection is reached through the atomic pointer because a
// re-home may have replaced it since construction.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		if conn := c.hbConn.Load(); conn != nil {
			err = conn.Close()
		}
		if uc := c.upConn.Load(); uc != nil {
			uc.Close()
		}
		if c.fb != nil {
			c.fb.mesh.Close()
		}
		c.wg.Wait()
	})
	return err
}

// heartbeatLoop is the liveness beacon: a tiny control datagram at
// the configured period — jittered ±10% from its own seeded stream so
// a fleet's beacons decohere — so silence between tensors is never
// mistaken for death. It deliberately reads only immutable config and
// the atomic connection pointer (the worker state machine belongs to
// the AllReduce goroutine, and a re-home may swap the socket under
// it); the aggregator's tracker ignores the possibly-stale generation
// stamp.
func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	rng := rand.New(rand.NewSource(jitterSeed(&c.cfg, 2)))
	t := time.NewTimer(jitterDur(rng, c.cfg.Heartbeat))
	defer t.Stop()
	hb := packet.NewControl(packet.KindHeartbeat, c.cfg.Worker.ID, c.cfg.Worker.JobID, 0, nil).Marshal()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			if conn := c.hbConn.Load(); conn != nil {
				if _, err := conn.Write(hb); err == nil {
					c.sent.Inc()
				}
			}
			t.Reset(jitterDur(rng, c.cfg.Heartbeat))
		}
	}
}

// Registry returns the metrics registry backing this client's
// counters — the one from the config, or the private registry
// allocated when none was supplied.
func (c *Client) Registry() *telemetry.Registry { return c.reg }

// Stats returns the worker state machine counters. The counters are
// atomic, so this is safe to call from a monitoring goroutine while
// AllReduceInt32 runs.
func (c *Client) Stats() core.WorkerStats { return c.worker.Stats() }

// trace emits a protocol event stamped with wall-clock time.
func (c *Client) trace(t telemetry.EventType, idx int32) {
	if c.cfg.Tracer == nil {
		return
	}
	e := telemetry.Ev(t, telemetry.WallClock())
	e.Actor = c.actor
	e.Worker = int32(c.cfg.Worker.ID)
	e.Slot = idx
	c.cfg.Tracer.Emit(e)
}

// AllReduceInt32 aggregates u with the other workers and returns the
// elementwise sum. It blocks until the aggregate is complete or the
// configured timeout elapses. With a Fallback configured the call
// survives aggregator death: the tensor is finished (and subsequent
// ones run) over the worker mesh instead of failing; without one, an
// aggregator silent for SuspectAfter-equivalent (8×RTO) turns the
// timeout into a typed, retryable ErrAggregatorSilent.
func (c *Client) AllReduceInt32(u []int32) ([]int32, error) {
	if len(u) == 0 {
		return nil, nil
	}
	if c.drained {
		return nil, ErrDrained
	}
	if c.cfg.Tracer != nil {
		e := telemetry.Ev(telemetry.EvTensorStart, telemetry.WallClock())
		e.Actor = c.actor
		e.Worker = int32(c.cfg.Worker.ID)
		e.Size = int32(4 * len(u))
		c.cfg.Tracer.Emit(e)
	}
	now := time.Now()
	deadline := now.Add(c.cfg.Timeout)
	if c.fb != nil && c.fb.degraded.Load() {
		return c.degradedAllReduce(u, deadline)
	}
	c.lastProgress = now
	if c.homeRank > 0 {
		// The job lives on a standby: run one round of the fail-up
		// probation before starting the tensor (failover.go).
		if err := c.failUpTick(deadline); err != nil {
			return nil, err
		}
		now = time.Now()
		c.lastProgress = now
	}
	if c.fenceArmed {
		// A membership change is pending and this call sits exactly at
		// the tensor boundary: hold until the fence commits. A §5.6
		// recovery superseding the fence may re-open the previous
		// tensor; drive it back to completion (the re-aggregated result
		// is the survivors', already superseded for this worker) before
		// starting the new one.
		reopened, err := c.holdAtFence(deadline)
		if err != nil {
			return nil, err
		}
		if reopened {
			if _, err := c.switchLoop(c.worker.Update(), deadline); err != nil {
				return nil, err
			}
		}
		now = time.Now()
	}
	for _, p := range c.worker.Start(u) {
		c.send(p, false, now)
		packet.PutPacket(p)
	}
	if err := c.flushTx(); err != nil {
		return nil, err
	}
	out, err := c.switchLoop(u, deadline)
	if errors.Is(err, errSilence) {
		return c.degradeLadder(u, deadline)
	}
	return out, err
}

// canDegrade reports whether someone can take over for a dead
// aggregator — a standby ladder, a host mesh, or both — which makes a
// provably-dead destination evidence for the silence clock rather
// than a caller error.
func (c *Client) canDegrade() bool { return c.fb != nil || len(c.ladder) > 1 }

// silenceAfter is the no-progress threshold that separates "switch
// gone" from an ordinarily slow aggregation.
func (c *Client) silenceAfter() time.Duration {
	if c.fb != nil {
		return c.fb.cfg.SuspectAfter
	}
	return 8 * c.cfg.RTO
}

// switchLoop drives the started tensor over the aggregator path until
// completion, timeout, or — with a Fallback configured — the silence
// verdict (returned as errSilence for the caller to degrade on).
//
// Each wakeup reads the clock twice: once before blocking, for the
// silence check, the call deadline and the read deadline, and once
// after the receive returns. The second reading stamps the whole
// burst — the progress clock, the RTT samples and every update staged
// while handling it — or drives the timeout sweep.
func (c *Client) switchLoop(u []int32, deadline time.Time) ([]int32, error) {
	for {
		now := time.Now()
		if silence := now.Sub(c.lastProgress); silence >= c.silenceAfter() {
			if c.fb != nil || len(c.ladder) > 1 {
				// Someone can take over: a host mesh, a standby ladder,
				// or both. Deliver the silence verdict and let
				// degradeLadder pick the next rung.
				c.trace(telemetry.EvSwitchSuspect, -1)
				return nil, errSilence
			}
			if now.After(deadline) {
				return nil, fmt.Errorf("transport: all-reduce timed out after %v with the aggregator silent for %v (%d chunks outstanding): %w",
					c.cfg.Timeout, silence.Round(time.Millisecond), c.worker.PendingCount(), ErrAggregatorSilent)
			}
		}
		if now.After(deadline) {
			return nil, fmt.Errorf("transport: all-reduce timed out after %v (%d chunks outstanding)",
				c.cfg.Timeout, c.worker.PendingCount())
		}
		// Wake at the earliest pending retransmission deadline.
		readDeadline := now.Add(c.cfg.RTO)
		for idx := range c.lastSend {
			if !c.worker.Pending(uint32(idx)) {
				continue
			}
			if d := c.lastSend[idx].Add(c.rto(idx)); d.Before(readDeadline) {
				readDeadline = d
			}
		}
		// Retransmissions staged by the previous sweep (and any sends a
		// prior burst generated) must reach the wire before blocking.
		if err := c.flushTx(); err != nil {
			return nil, err
		}
		if err := c.conn.SetReadDeadline(readDeadline); err != nil {
			return nil, err
		}
		nm, err := c.nc.Recv()
		now = time.Now()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.sweepTimeouts(now)
				continue
			}
			if c.canDegrade() {
				// A refused or unreachable destination is death
				// evidence, not a caller error: let the silence clock
				// decide, pacing the retry loop meanwhile.
				time.Sleep(c.cfg.RTO / 8)
				continue
			}
			return nil, err
		}
		c.recvd.Add(uint64(nm))
		for i := 0; i < nm; i++ {
			if err := packet.UnmarshalInto(&c.rp, c.nc.Msgs[i].Buf); err != nil {
				c.corrupt.Inc()
				continue // corrupted datagram
			}
			c.lastProgress = now
			done, err := c.handleIncoming(&c.rp, now)
			if err != nil {
				return nil, err
			}
			if done {
				c.trace(telemetry.EvTensorDone, -1)
				c.gFrontier.Set(int64(c.worker.FrontierOff()))
				c.gPending.Set(0)
				if err := c.flushTx(); err != nil {
					return nil, err
				}
				out := make([]int32, len(u))
				copy(out, c.worker.Aggregate())
				return out, nil
			}
		}
	}
}

// handleIncoming dispatches one datagram from the aggregator, received
// at now. Results feed the protocol state machine; reconfigure and
// resume directives run the worker's half of the §5.6 recovery
// handshake.
func (c *Client) handleIncoming(p *packet.Packet, now time.Time) (bool, error) {
	//switchml:dispatch
	switch p.Kind {
	case packet.KindReconfig:
		if p.Ver == 1 {
			// An elastic-membership fence: finish this tensor, then
			// hold at the boundary (elastic_client.go).
			return false, c.armFence(p)
		}
		// A membership change is in effect. A worker absent from the
		// survivor vector has been declared failed: its updates will
		// never be aggregated again, so failing fast beats timing out.
		member := false
		for _, w := range p.Vector {
			if w == int32(c.cfg.Worker.ID) {
				member = true
				break
			}
		}
		if !member {
			return false, fmt.Errorf("transport: worker %d evicted from job (generation %d)",
				c.cfg.Worker.ID, p.JobID)
		}
		// Report the progress frontier; the directive may arrive again
		// if this report is lost, and reporting is idempotent.
		return false, c.sendControl(packet.KindReport, p.JobID, c.worker.FrontierOff(), nil)
	case packet.KindResume:
		if p.JobID == c.epoch {
			return false, nil // repeated directive for an adopted generation
		}
		pkts, err := c.worker.ResumeAt(p.JobID, p.Off)
		if err != nil {
			return false, fmt.Errorf("transport: resume at %d: %w", p.Off, err)
		}
		c.epoch = p.JobID
		c.gEpoch.Set(int64(p.JobID))
		c.trace(telemetry.EvResume, -1)
		for i := range c.backoff {
			c.backoff[i] = 0
			c.retxed[i] = false
		}
		for _, q := range pkts {
			c.send(q, false, now)
			packet.PutPacket(q)
		}
		return false, nil
	case packet.KindResult, packet.KindResultUnicast:
		if c.cfg.AdaptiveRTO && int(p.Idx) < len(c.retxed) && !c.retxed[p.Idx] && c.worker.Pending(p.Idx) {
			// A clean (never retransmitted) in-flight chunk's round
			// trip is an unambiguous RTT sample (Karn's rule). Both ends
			// are wakeup stamps, so it can overstate by one burst's
			// handling time.
			c.observeRTT(now.Sub(c.lastSend[p.Idx]))
		}
		next, done := c.worker.HandleResult(p)
		if next != nil || done || !c.worker.Pending(p.Idx) {
			// The slot made progress (or is idle): its loss streak is
			// over, so the backoff resets to the base RTO.
			if int(p.Idx) < len(c.backoff) {
				c.backoff[p.Idx] = 0
			}
		}
		if next != nil {
			c.send(next, false, now)
			packet.PutPacket(next)
		}
		return done, nil
	default:
		// Aggregators never send update/report/heartbeat kinds; count
		// the drop so a confused aggregator is visible.
		c.unexpected.Inc()
		return false, nil
	}
}

// send stages an update into the window train and stamps its slot
// timer with now, consulting the fault injector: a drop is not staged, a
// corruption stages the mangled bytes, a duplicate is staged twice.
// An injected drop still stamps the timer — the packet was "lost on
// the wire", and the retransmission machinery is exactly what
// recovers it. The wire bytes go through the client's reused send
// buffer; callers that got p from the packet pool may return it as
// soon as send returns. retx flags retransmissions, whose round trips
// the RTT estimator must ignore. Send failures surface at the next
// flushTx.
func (c *Client) send(p *packet.Packet, retx bool, now time.Time) {
	c.lastSend[p.Idx] = now
	if int(p.Idx) < len(c.retxed) {
		c.retxed[p.Idx] = retx
	}
	c.sbuf = p.AppendMarshal(c.sbuf[:0])
	if c.inj != nil {
		switch c.inj.Judge() {
		case faults.Drop:
			return
		case faults.Corrupt:
			c.inj.Mangle(c.sbuf)
		case faults.Duplicate:
			c.stageTx()
		}
	}
	c.stageTx()
}

// stageTx appends the marshalled update in sbuf to the window block.
// Updates are equal-size in the steady state (every full chunk
// marshals to the same wire length), so the block flushes as one
// segment train; a size change or a full block flushes eagerly first.
func (c *Client) stageTx() {
	if c.txSeg != 0 && (len(c.sbuf) != c.txSeg || len(c.txb)+len(c.sbuf) > cap(c.txb)) {
		c.flushTxBlock()
	}
	c.txSeg = len(c.sbuf)
	c.txb = append(c.txb, c.sbuf...)
	c.sent.Inc()
}

// flushTxBlock pushes the staged window block to the kernel. The
// block is handed to AppendTrain unaliased-safe: netio may reference
// it until Flush returns, so the reset happens after.
func (c *Client) flushTxBlock() {
	if len(c.txb) == 0 {
		return
	}
	c.nc.AppendTrain(c.txb, c.txSeg, netip.AddrPort{})
	c.nc.Flush()
	c.txb = c.txb[:0]
	c.txSeg = 0
}

// flushTx drains the staged window and surfaces the first send error
// netio reported since the last flush. With a fallback armed, a
// provably-dead destination is death evidence for the silence clock
// rather than a caller error.
func (c *Client) flushTx() error {
	c.flushTxBlock()
	c.nc.Flush()
	if err := c.stageErr; err != nil {
		c.stageErr = nil
		if c.canDegrade() && deadDestination(err) {
			return nil
		}
		return fmt.Errorf("transport: send: %w", err)
	}
	return nil
}

// deadDestination reports whether a datagram write failed because the
// destination is provably gone — an ICMP unreachable surfaced by the
// connected socket (the aggregator process died and the kernel
// rejects the port) — rather than a local socket error. With a
// fallback armed that is death evidence for the silence detector, not
// a caller error: the datagram counts as lost on the wire, and the
// no-progress clock delivers the degrade verdict.
func deadDestination(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETUNREACH)
}

// sendControl transmits a control datagram (report, heartbeat)
// bypassing the fault injector: on a real network control loss is
// repaired by the aggregator's sweep-period rebroadcast.
func (c *Client) sendControl(kind packet.Kind, job uint16, off uint64, vec []int32) error {
	c.cbuf = packet.NewControl(kind, c.cfg.Worker.ID, job, off, vec).AppendMarshal(c.cbuf[:0])
	if _, err := c.conn.Write(c.cbuf); err != nil {
		if c.canDegrade() && deadDestination(err) {
			return nil
		}
		return fmt.Errorf("transport: send: %w", err)
	}
	c.sent.Inc()
	return nil
}

// rto returns slot idx's effective timeout: the base RTO — adapted to
// the estimated RTT when configured — with the slot's exponential
// backoff applied.
func (c *Client) rto(idx int) time.Duration {
	base := c.cfg.RTO
	if c.cfg.AdaptiveRTO && c.srtt > 0 {
		base = c.srtt + 4*c.rttvar
		if base < c.cfg.RTO {
			base = c.cfg.RTO
		}
		if max := c.cfg.RTO * 64; base > max {
			base = max
		}
	}
	return base << c.backoff[idx]
}

// observeRTT folds a clean round-trip sample into the Jacobson
// estimator (RFC 6298 constants: α=1/8, β=1/4) and publishes the
// latency view: the per-chunk RTT histogram and the srtt/rto gauges.
func (c *Client) observeRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	c.chunkRTT.Observe(float64(sample))
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar += (diff - c.rttvar) / 4
		c.srtt += (sample - c.srtt) / 8
	}
	c.gSRTT.Set(int64(c.srtt))
	base := c.srtt + 4*c.rttvar
	if base < c.cfg.RTO {
		base = c.cfg.RTO
	}
	if max := c.cfg.RTO * 64; base > max {
		base = max
	}
	c.gRTO.Set(int64(base))
}

// sweepTimeouts retransmits every pending chunk whose RTO elapsed by
// now (Algorithm 4 lines 20-23), doubling that slot's timeout. Sweeps are
// also the mid-tensor publication point for the frontier and pending
// gauges: frequent enough to be live, rare enough that the
// O(chunks) frontier scan never shadows packet handling.
func (c *Client) sweepTimeouts(now time.Time) {
	c.gPending.Set(int64(c.worker.PendingCount()))
	c.gFrontier.Set(int64(c.worker.FrontierOff()))
	for idx := range c.lastSend {
		if !c.worker.Pending(uint32(idx)) {
			continue
		}
		if now.Sub(c.lastSend[idx]) < c.rto(idx) {
			continue
		}
		if c.backoff[idx] < 6 {
			c.backoff[idx]++
		}
		c.trace(telemetry.EvTimeoutFired, int32(idx))
		if p := c.worker.Retransmit(uint32(idx)); p != nil {
			c.trace(telemetry.EvRetransmit, int32(idx))
			c.send(p, true, now)
			packet.PutPacket(p)
		}
	}
}
