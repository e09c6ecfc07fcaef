// Warm-standby failover: the middle rung of the three-tier defense
// ladder (primary switch → warm-standby switch → host mesh) for the
// UDP transport. The paper's §5.6 answer to a dead switch is to remap
// the job onto a different switch; this file is that remapping for
// the software aggregator, with the PR 5 host mesh demoted from "the"
// fallback to the rung of last resort.
//
// The client half: ClientConfig.Standbys ranks backup aggregators
// behind the primary. When the silence detector trips, the worker
// walks the ladder — re-dialing the next rung and running the
// KindAdoptJob handshake: it proposes the bumped job generation with
// its chunk frontier, and the rung echoes the request (Ver=1) while
// it collects the same roll call from every other member, all of
// whom detect the same outage on their own silence clocks. The rung
// commits once the roll call is complete — pool wiped under the
// proposed generation, membership inherited — and releases everyone
// with KindResume at the minimum adopted frontier, exactly the §5.6
// reconfigure/report/resume shape with the roll call standing in for
// the report quorum. Only when every rung is silent does the job drop
// to the host mesh (fallback.go), and while it lives on a standby a
// per-tensor probe of the primary runs the same probation window the
// mesh uses, so the job climbs back to rank 0 once the primary has
// answered probes for Probation consecutive tensors.
//
// The aggregator half is the adoption roll call. A standby comes up
// cold: empty pool, no peers, the same worker universe. Adoption
// requests are collected under the control mutex; the commit reuses
// the probe fence's pool wipe (Reconfigure under the proposed
// generation) so nothing aggregated before the outage can leak into
// post-failover slots, and arms the stale-generation repair path so a
// lost release is re-sent. A worker whose climb raced a flapping
// primary simply falls back down the ladder — the handshake is
// idempotent and generation-fenced at every step.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"time"

	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// FailoverStats is a snapshot of the ladder counters. All counters
// are registry-backed atomics, so the snapshot is safe to take from a
// monitoring goroutine while AllReduceInt32 runs.
type FailoverStats struct {
	// Rehomes counts re-dials of the main aggregator connection to a
	// different ladder rung (descents and climbs alike).
	Rehomes uint64
	// AdoptRequests counts KindAdoptJob solicitations sent.
	AdoptRequests uint64
	// Probes / ProbeAcks count fail-up probes of the primary sent and
	// answered while the job lives on a standby.
	Probes, ProbeAcks uint64
	// Failbacks counts successful climbs back to the primary (rank 0).
	Failbacks uint64
}

// FailoverStats snapshots the ladder counters (all zero when no
// standbys are configured). Safe for monitoring goroutines.
func (c *Client) FailoverStats() FailoverStats {
	return FailoverStats{
		Rehomes:       c.failRehomes.Value(),
		AdoptRequests: c.failAdopts.Value(),
		Probes:        c.failProbes.Value(),
		ProbeAcks:     c.failProbeAcks.Value(),
		Failbacks:     c.failFailbacks.Value(),
	}
}

// HomeRank reports the ladder rung currently serving the job: 0 is
// the primary aggregator, higher ranks are standbys in Standbys
// order. Safe for monitoring goroutines (it reads the published
// gauge, not the AllReduce goroutine's state).
func (c *Client) HomeRank() int { return int(c.gHome.Value()) }

// jitterSeed derives the deterministic per-worker seed for control-
// timer jitter: the configured seed when set, spread by worker id
// either way so a fleet sharing one config is decorrelated by
// default. stream separates independent consumers (the AllReduce
// goroutine and the heartbeat goroutine must not share a rand.Rand).
func jitterSeed(cfg *ClientConfig, stream int64) int64 {
	base := cfg.JitterSeed
	if base == 0 {
		base = 0x5317c4a1
	}
	return base + int64(cfg.Worker.ID)*2654435761 + stream
}

// jitterDur spreads d by ±10% from the seeded stream, so a fleet of
// workers does not synchronize its heartbeats, probes and adoption
// retransmissions into a stampede against a recovering aggregator.
func jitterDur(rng *rand.Rand, d time.Duration) time.Duration {
	if rng == nil || d <= 0 {
		return d
	}
	return d + time.Duration((rng.Float64()-0.5)*0.2*float64(d))
}

// wrapMain builds the batched socket view over a main aggregator
// connection and installs it; called at construction and again by
// every re-home (the netio arenas are bound to one socket). Nothing
// is swapped when the wrap fails. The send retries of a retired view
// are folded into retiredRetries so the introspection total survives
// the swap.
func (c *Client) wrapMain(conn *net.UDPConn) error {
	mtu := aggWireMTU(c.cfg.Worker.SlotElems)
	nc, err := netio.Wrap(conn, netio.Config{
		Batch: c.cfg.Batch,
		MTU:   mtu,
		OnSendError: func(err error, n int) {
			c.sendErrs.Add(uint64(n))
			if c.stageErr == nil {
				c.stageErr = err
			}
		},
	})
	if err != nil {
		return fmt.Errorf("transport: batched socket view: %w", err)
	}
	if old := c.nc; old != nil {
		c.retiredRetries.Add(old.SendRetries())
	}
	c.nc = nc
	c.ncDbg.Store(nc)
	c.txb = make([]byte, 0, c.cfg.Batch*mtu)
	c.txSeg = 0
	c.stageErr = nil
	return nil
}

// sendRetryTotal sums transient-send retries across the current and
// retired batched views. Safe for monitoring goroutines.
func (c *Client) sendRetryTotal() uint64 {
	total := c.retiredRetries.Load()
	if nc := c.ncDbg.Load(); nc != nil {
		total += nc.SendRetries()
	}
	return total
}

// rehome re-dials the main aggregator connection to ladder rung rank
// and rebinds the batched I/O view. The heartbeat goroutine follows
// through the atomic connection pointer; a beacon written to the
// closed previous socket is harmless (its error is ignored and the
// next tick lands on the new rung).
func (c *Client) rehome(rank int) error {
	if rank == c.homeRank {
		return nil
	}
	conn, err := net.DialUDP("udp", nil, c.ladder[rank])
	if err != nil {
		return fmt.Errorf("transport: dial ladder rung %d: %w", rank, err)
	}
	if err := c.wrapMain(conn); err != nil {
		conn.Close()
		return err
	}
	old := c.conn
	c.conn = conn
	c.hbConn.Store(conn)
	old.Close()
	c.homeRank = rank
	c.gHome.Set(int64(rank))
	c.failRehomes.Inc()
	if c.cfg.Tracer != nil {
		e := telemetry.Ev(telemetry.EvRehome, telemetry.WallClock())
		e.Actor = c.actor
		e.Worker = int32(c.cfg.Worker.ID)
		e.Slot = int32(rank)
		e.Off = int64(c.worker.FrontierOff())
		c.cfg.Tracer.Emit(e)
	}
	return nil
}

// adoptAt re-homes to ladder rung rank and runs the adoption
// handshake to completion: KindAdoptJob (proposing the bumped
// generation with this worker's chunk frontier) is retransmitted at a
// jittered RTO until the rung's KindResume releases the job at the
// collective minimum frontier. A rung that never even echoes the
// request within ackPatience is written off quickly; once the echo
// proves the roll call is open, the wait stretches to commitPatience
// so members whose own silence clocks have not yet expired can
// arrive. Both verdicts come back wrapped in ErrAggregatorSilent so
// the caller can try the next rung.
func (c *Client) adoptAt(rank int, deadline time.Time) error {
	if err := c.rehome(rank); err != nil {
		return err
	}
	prop := c.epoch + 1
	frontier := c.worker.FrontierOff()
	req := packet.NewControl(packet.KindAdoptJob, c.cfg.Worker.ID, prop, frontier, nil)
	ackPatience := 8 * c.cfg.RTO
	// Two silence windows cover the straggling detector (a member that
	// was between tensors notices the outage one full SuspectAfter
	// later than the rest), plus handshake round trips.
	commitPatience := 2*c.silenceAfter() + 8*c.cfg.RTO
	started := time.Now()
	acked := false
	var lastTx time.Time
	for {
		select {
		case <-c.closed:
			return net.ErrClosed
		default:
		}
		now := time.Now()
		if now.After(deadline) {
			return fmt.Errorf("transport: adoption at ladder rung %d timed out: %w", rank, ErrAggregatorSilent)
		}
		if wait := now.Sub(started); (!acked && wait >= ackPatience) || wait >= commitPatience {
			return fmt.Errorf("transport: ladder rung %d silent through the adoption handshake (echoed=%v): %w", rank, acked, ErrAggregatorSilent)
		}
		if now.Sub(lastTx) >= jitterDur(c.frng, c.cfg.RTO) {
			c.cbuf = req.AppendMarshal(c.cbuf[:0])
			if _, err := c.conn.Write(c.cbuf); err == nil {
				c.sent.Inc()
			}
			c.failAdopts.Inc()
			lastTx = now
		}
		if err := c.conn.SetReadDeadline(now.Add(c.cfg.RTO / 2)); err != nil {
			return err
		}
		n, err := c.conn.Read(c.rbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			if deadDestination(err) {
				// The rung's port is provably closed; fail it without
				// waiting out the patience window.
				return fmt.Errorf("transport: ladder rung %d unreachable: %w", rank, ErrAggregatorSilent)
			}
			return err
		}
		c.recvd.Inc()
		if packet.UnmarshalInto(&c.rp, c.rbuf[:n]) != nil {
			c.corrupt.Inc()
			continue
		}
		p := &c.rp
		//switchml:dispatch
		switch p.Kind {
		case packet.KindAdoptJob:
			// The Ver=1 echo: the rung is alive and collecting the roll
			// call; hold for the rest of the membership.
			if p.Ver == 1 {
				acked = true
			}
		case packet.KindResume:
			if p.JobID == c.epoch {
				continue // stale directive for an already-adopted generation
			}
			pkts, rerr := c.worker.ResumeAt(p.JobID, p.Off)
			if rerr != nil {
				return fmt.Errorf("transport: adoption resume at %d: %w", p.Off, rerr)
			}
			c.adoptEpoch(p.JobID)
			now := time.Now()
			c.lastProgress = now
			c.trace(telemetry.EvResume, -1)
			for _, q := range pkts {
				c.send(q, false, now)
				packet.PutPacket(q)
			}
			return c.flushTx()
		case packet.KindReconfig:
			// A liveness-equipped rung running its own §5.6 pass mid-
			// adoption: answer the Ver=0 directive with our frontier so
			// its quorum can close (the resume it ends with releases us
			// above). Ver=1 membership fences are ignored — an adoption
			// supersedes any fence the dead rung had proposed.
			if p.Ver == 0 {
				if err := c.sendControl(packet.KindReport, p.JobID, frontier, nil); err != nil {
					return err
				}
			}
		default:
			// Stale results from the previous rung cannot arrive on the
			// fresh socket; anything else is a confused peer.
			c.unexpected.Inc()
		}
	}
}

// degradeLadder is the silence verdict's escalation path: walk the
// standby ladder (preferring the primary when the job was living on a
// standby), adopting the job onto the first rung that answers; drop
// to the host mesh only when every rung is silent, and surface a
// typed retryable error when there is no mesh either.
func (c *Client) degradeLadder(u []int32, deadline time.Time) ([]int32, error) {
	if len(c.ladder) > 1 {
		prev := c.homeRank
		for rank := range c.ladder {
			if rank == prev {
				continue // the rung that just went silent scores last
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("transport: all-reduce timed out descending the failover ladder: %w", ErrAggregatorSilent)
			}
			err := c.adoptAt(rank, deadline)
			if err == nil {
				// A fence proposed by the dead rung died with it; the
				// joiner re-solicits against the new home.
				c.fenceArmed = false
				out, err := c.switchLoop(u, deadline)
				if errors.Is(err, errSilence) {
					return c.degradeLadder(u, deadline)
				}
				return out, err
			}
			if errors.Is(err, ErrAggregatorSilent) {
				continue // this rung is down too; keep descending
			}
			return nil, err
		}
		// Every rung is silent. Re-home to the primary so the degraded
		// path's probes — and its eventual failback — target rank 0.
		if err := c.rehome(0); err != nil {
			return nil, err
		}
	}
	if c.fb == nil {
		return nil, fmt.Errorf("transport: all-reduce stalled with every aggregator rung silent (%d rungs, %d chunks outstanding): %w",
			len(c.ladder), c.worker.PendingCount(), ErrAggregatorSilent)
	}
	return c.enterFallback(u, deadline)
}

// ladderProbation is the fail-up threshold: how many consecutive
// tensors must see the primary answer a probe before the job climbs
// back to rank 0. It mirrors the mesh's probation knob when a
// fallback is configured (negative pins the job on its standby).
func (c *Client) ladderProbation() int {
	if c.fb != nil {
		return c.fb.cfg.Probation
	}
	return 3
}

// failUpTick runs one round of the fail-up probation at a tensor
// boundary while the job lives on a standby: resolve the previous
// tensor's probe of the primary, climb once the answer streak crosses
// the probation window, and open the next round. The probe proposes
// nothing (it carries the current generation), so the primary's
// probe fence stays un-tripped until the adoption handshake proposes
// the real bump. A climb that races a flapping primary falls back to
// the standby that was serving the job and restarts probation.
func (c *Client) failUpTick(deadline time.Time) error {
	prob := c.ladderProbation()
	if prob < 0 {
		return nil
	}
	if c.upConn.Load() == nil {
		uc, err := net.DialUDP("udp", nil, c.ladder[0])
		if err != nil {
			return nil // cannot probe; stay on the standby
		}
		c.upConn.Store(uc)
	}
	uc := c.upConn.Load()
	if c.upAwait {
		// A short real deadline, not an expired one: Go fails reads on
		// an already-passed deadline without delivering buffered
		// datagrams.
		uc.SetReadDeadline(time.Now().Add(jitterDur(c.frng, c.cfg.RTO/8)))
		for {
			n, err := uc.Read(c.rbuf)
			if err != nil {
				break
			}
			c.recvd.Inc()
			if packet.UnmarshalInto(&c.rp, c.rbuf[:n]) != nil {
				c.corrupt.Inc()
				continue
			}
			if c.rp.Kind == packet.KindProbeAck && c.rp.Idx == c.upSeq {
				c.upAwait = false
				c.upStreak++
				c.failProbeAcks.Inc()
				c.trace(telemetry.EvProbeAck, int32(c.rp.Idx))
			}
		}
		if c.upAwait {
			// The probe went unanswered: the primary is still gone (or
			// flapping); either way the probation clock restarts.
			c.upAwait = false
			c.upStreak = 0
		}
	}
	if c.upStreak >= prob {
		prev := c.homeRank
		c.upStreak = 0
		if err := c.adoptAt(0, deadline); err != nil {
			if errors.Is(err, ErrAggregatorSilent) {
				return c.rehome(prev)
			}
			return err
		}
		c.failFailbacks.Inc()
		c.trace(telemetry.EvFailback, -1)
		return nil
	}
	c.upSeq++
	c.upAwait = true
	p := packet.NewControl(packet.KindProbe, c.cfg.Worker.ID, c.epoch, 0, nil)
	p.Idx = c.upSeq
	c.cbuf = p.AppendMarshal(c.cbuf[:0])
	if _, err := uc.Write(c.cbuf); err == nil {
		c.sent.Inc()
	}
	c.failProbes.Inc()
	c.trace(telemetry.EvProbe, int32(c.upSeq))
	return nil
}

// --- Aggregator half: the adoption roll call ---

// adoptFence is an open adoption roll call, guarded by the aggregator
// mutex. Unlike the elastic memberFence (one joiner fenced in at a
// boundary) it collects the whole membership arriving from a dead
// rung, each member carrying its own frontier.
type adoptFence struct {
	// gen is the proposed job generation (the voters' epoch + 1; a
	// strictly newer proposal supersedes an open roll call).
	gen uint16
	// seen marks workers whose adoption request arrived; count is the
	// number of distinct voters.
	seen  []bool
	count int
	// frontier is the minimum proposed chunk frontier — where the
	// whole membership can provably resume from.
	frontier uint64
}

// handleAdopt processes one KindAdoptJob solicitation: open (or join)
// the roll call for the proposed generation, echo the request with
// Ver=1 while the roll call is short of the membership, and commit —
// wiping the pool under the proposed generation and releasing every
// voter at the minimum frontier — when the last member arrives. A
// duplicate for an already-committed generation gets the release
// re-sent, so a lost KindResume never wedges a voter.
func (a *Aggregator) handleAdopt(sh *aggShard, j *aggJob, src netip.AddrPort) {
	p := &sh.pkt
	w := int(p.WorkerID)
	if a.lv != nil {
		// Adoption traffic is liveness — and a worker this standby's own
		// detector wrote off while the job lived elsewhere is plainly
		// back.
		a.lv.tracker.MarkAlive(w, time.Now().UnixNano())
	}
	j.setPeer(p.WorkerID, src)
	a.mu.Lock()
	if int16(p.JobID-a.epochNow()) <= 0 {
		// Stale proposal, or a duplicate for a committed adoption whose
		// release was lost.
		done, gen, frontier := a.adoptDone, a.adoptGen, a.adoptFrontier
		a.mu.Unlock()
		if done && p.JobID == gen {
			sh.ctrl = packet.NewControl(packet.KindResume, p.WorkerID, gen, frontier, nil).AppendMarshal(sh.ctrl[:0])
			a.reply(sh, sh.ctrl, src)
		}
		return
	}
	f := a.adopt
	if f == nil || int16(p.JobID-f.gen) > 0 {
		// A fresh roll call, or one for a strictly newer generation —
		// which supersedes the old: its voters re-send at their RTO.
		f = &adoptFence{gen: p.JobID, seen: make([]bool, len(j.peers)), frontier: ^uint64(0)}
		a.adopt = f
	}
	if !f.seen[w] {
		f.seen[w] = true
		f.count++
	}
	if p.Off < f.frontier {
		f.frontier = p.Off
	}
	if f.count >= a.adoptQuorumLocked(j) {
		a.commitAdoptLocked(j, f)
		a.mu.Unlock()
		return
	}
	gen := f.gen
	a.mu.Unlock()
	echo := packet.NewControl(packet.KindAdoptJob, p.WorkerID, gen, p.Off, nil)
	echo.Ver = 1
	sh.ctrl = echo.AppendMarshal(sh.ctrl[:0])
	a.reply(sh, sh.ctrl, src)
}

// adoptQuorumLocked is the roll-call size a rung waits for before
// committing an adoption: the full worker universe without a failure
// detector, the non-retired set with one (graceful leavers and
// evicted workers stay excused).
func (a *Aggregator) adoptQuorumLocked(j *aggJob) int {
	if a.lv == nil {
		return len(j.peers)
	}
	n := 0
	for w := range j.peers {
		if !a.lv.tracker.Dead(w) {
			n++
		}
	}
	return n
}

// commitAdoptLocked installs the adopted job: pool wiped under the
// proposed generation (the probe-fence wipe, so nothing aggregated
// before the outage leaks into post-failover slots), the §5.6 repair
// state armed so a lost release is re-sent on stale-generation
// traffic, and every voter released at the minimum adopted frontier
// (marshalled once, worker id patched per peer).
func (a *Aggregator) commitAdoptLocked(j *aggJob, f *adoptFence) {
	if a.solo() != j {
		return // a job admitted meanwhile froze generations (jobs.go)
	}
	if err := j.sw.Reconfigure(nil, f.gen); err != nil {
		return
	}
	a.epoch.Store(uint32(f.gen))
	a.adopt = nil
	a.adoptGen, a.adoptFrontier, a.adoptDone = f.gen, f.frontier, true
	if a.lv != nil {
		// An adoption supersedes any recovery or membership fence this
		// rung had in flight.
		a.lv.fence = nil
		a.lv.recovering = false
		a.lv.resumeReady.Store(true)
		a.lv.frontier.Store(f.frontier)
		for i := range a.lv.reported {
			a.lv.reported[i] = false
		}
	}
	a.adoptions.Inc()
	a.traceCtrl(telemetry.EvAdopt, -1, int64(f.frontier))
	a.traceCtrl(telemetry.EvReconfigure, -1, int64(f.gen))
	var wire []byte
	for i := range j.peers {
		if !f.seen[i] {
			continue
		}
		ap := j.peers[i].Load()
		if ap == nil {
			continue
		}
		if wire == nil {
			wire = packet.NewControl(packet.KindResume, uint16(i), f.gen, f.frontier, nil).Marshal()
		} else if err := packet.PatchWorkerID(wire, uint16(i)); err != nil {
			continue
		}
		a.writeCtrl(wire, *ap)
	}
}

// Adoptions reports how many warm-standby adoption roll calls this
// aggregator has committed. Safe for monitoring goroutines.
func (a *Aggregator) Adoptions() uint64 { return a.adoptions.Value() }
