package transport

import (
	"switchml/internal/core"
	"switchml/internal/telemetry"
)

// AggDebugState is the aggregator's deep introspection document,
// served at /debug/state and embedded in flight-recorder incidents.
//
// Every field is assembled from atomics, per-slot-locked reads and
// counter snapshots — never from a.mu — so it is safe to build from
// any goroutine, including inside trace callbacks fired by the
// recovery state machine while it holds a.mu.
type AggDebugState struct {
	Role  string `json:"role"`
	Epoch uint16 `json:"epoch"`
	// Down mirrors the chaos kill switch: the program is "dead" while
	// the socket stays bound.
	Down   bool `json:"down"`
	Shards int  `json:"shards"`
	// Batch is the per-shard burst ceiling; NetMode names the netio
	// mode the shard loops selected ("portable", "mmsg" or "gso").
	Batch   int    `json:"batch"`
	NetMode string `json:"net_mode"`
	// ShardDatagrams[i] is shard i's cumulative drain count; their
	// spread is the shard-balance view.
	ShardDatagrams []uint64 `json:"shard_datagrams"`
	Received       uint64   `json:"datagrams_received"`
	Corrupted      uint64   `json:"datagrams_corrupted"`
	Sent           uint64   `json:"datagrams_sent"`
	// SendErrors counts datagrams whose socket send failed (dropped,
	// surfaced for diagnosis; the protocol's loss recovery repairs
	// them). SendRetries counts transient kernel pushback
	// (ENOBUFS/EAGAIN) absorbed by netio's bounded backoff instead of
	// dropping, summed across the shard socket views.
	SendErrors  uint64 `json:"udp_send_errors"`
	SendRetries uint64 `json:"udp_send_retries"`
	// Adoptions counts warm-standby adoption roll calls this
	// aggregator has committed: jobs it inherited from a dead rung
	// through the KindAdoptJob handshake.
	Adoptions uint64 `json:"adoptions"`
	// BatchOccupancyP50/P99 are quantiles of datagrams drained per
	// receive wakeup, merged across shards: how full the batch
	// pipeline actually runs.
	BatchOccupancyP50 float64 `json:"batch_occupancy_p50"`
	BatchOccupancyP99 float64 `json:"batch_occupancy_p99"`
	// Jobs are the admitted job ids, ascending. Switch, Pool, Peers,
	// Alive and Membership describe the job of a one-job table and
	// stay empty with more jobs, whose per-job counters carry a job
	// label in the registry.
	Jobs   []uint16         `json:"jobs"`
	Switch core.SwitchStats `json:"switch"`
	Pool   core.PoolState   `json:"pool"`
	// Peers are the learned worker addresses ("" while unlearned);
	// Alive the liveness verdicts (all true without a detector).
	Peers []string `json:"peers"`
	Alive []bool   `json:"alive"`
	// Membership is each worker's elastic-membership status:
	// "member", "draining" (graceful leave announced, finishing its
	// in-flight window) or "departed" (outside the job: gracefully
	// left, never admitted, or evicted). Without a failure detector
	// every worker reads "member".
	Membership []string `json:"membership"`
}

// DebugState assembles the aggregator's introspection document.
// withSlots additionally dumps every slot's state (count, offset,
// seen bitmap), the level of detail incident files want.
func (a *Aggregator) DebugState(withSlots bool) AggDebugState {
	tab := a.table()
	st := AggDebugState{
		Role:           "aggregator",
		Epoch:          a.epochNow(),
		Down:           a.down.Load(),
		Shards:         len(a.shards),
		Batch:          a.cfg.Batch,
		NetMode:        a.netMode,
		ShardDatagrams: make([]uint64, len(a.shards)),
		Received:       a.recvd.Value(),
		Corrupted:      a.corrupt.Value(),
		Sent:           a.sent.Value(),
		SendErrors:     a.sendErrs.Value(),
		Adoptions:      a.adoptions.Value(),
		Jobs:           jobIDs(tab),
	}
	for i, sh := range a.shards {
		st.ShardDatagrams[i] = sh.datagrams.Value()
		st.SendRetries += sh.nc.SendRetries()
	}
	occ := a.occupancySnapshot()
	st.BatchOccupancyP50 = occ.Quantile(0.5)
	st.BatchOccupancyP99 = occ.Quantile(0.99)
	if len(tab) != 1 {
		return st
	}
	j := tab[0]
	st.Switch = j.sw.Stats()
	st.Pool = j.sw.PoolState(withSlots)
	st.Peers = make([]string, len(j.peers))
	st.Alive = make([]bool, len(j.peers))
	st.Membership = make([]string, len(j.peers))
	for i := range j.peers {
		if ap := j.peers[i].Load(); ap != nil {
			st.Peers[i] = ap.String()
		}
		st.Alive[i] = a.Alive(i)
		switch {
		case a.Departed(i):
			st.Membership[i] = "departed"
		case a.Draining(i):
			st.Membership[i] = "draining"
		default:
			st.Membership[i] = "member"
		}
	}
	return st
}

// occupancySnapshot merges the per-shard batch-occupancy histograms
// into one distribution (the buckets are shared, so counts add).
func (a *Aggregator) occupancySnapshot() telemetry.HistogramSnapshot {
	merged := a.shards[0].occ.Snapshot()
	for _, sh := range a.shards[1:] {
		s := sh.occ.Snapshot()
		for i := range s.Counts {
			merged.Counts[i] += s.Counts[i]
		}
		merged.Count += s.Count
		merged.Sum += s.Sum
	}
	return merged
}

// ClientDebugState is one worker's introspection document, served at
// /debug/state. Assembled entirely from atomics and gauges the
// AllReduce goroutine publishes at safe points, so it is valid from
// any goroutine while a collective runs.
type ClientDebugState struct {
	Role   string `json:"role"`
	Worker int    `json:"worker"`
	Epoch  uint16 `json:"epoch"`
	// Degraded reports the health state: false = SWITCH path,
	// true = DEGRADED (host all-reduce mesh).
	Degraded bool `json:"degraded"`
	// SRTTNs/RTONs are the RTT estimator's view (0 before the first
	// clean sample when adaptive RTO is off).
	SRTTNs int64 `json:"srtt_ns"`
	RTONs  int64 `json:"rto_ns"`
	// FrontierOff is the stream offset of contiguous progress;
	// PendingChunks the in-flight count at the last publication point.
	FrontierOff   int64 `json:"frontier_off"`
	PendingChunks int64 `json:"pending_chunks"`
	// Batch/NetMode mirror the aggregator-side fields: the send/recv
	// burst ceiling and the selected I/O strategy.
	Batch      int    `json:"batch"`
	NetMode    string `json:"net_mode"`
	Received   uint64 `json:"datagrams_received"`
	Corrupted  uint64 `json:"datagrams_corrupted"`
	Sent       uint64 `json:"datagrams_sent"`
	SendErrors uint64 `json:"udp_send_errors"`
	// SendRetries counts transient kernel pushback (ENOBUFS/EAGAIN)
	// absorbed by netio's bounded backoff instead of dropping, summed
	// across socket views retired by re-homes.
	SendRetries uint64           `json:"udp_send_retries"`
	Stats       core.WorkerStats `json:"stats"`
	Fallback    FallbackStats    `json:"fallback"`
	// HomeRank is the failover-ladder rung serving the job (0 = the
	// primary aggregator); Failover the ladder counters.
	HomeRank int           `json:"home_rank"`
	Failover FailoverStats `json:"failover"`
}

// DebugState assembles the worker's introspection document.
func (c *Client) DebugState() ClientDebugState {
	return ClientDebugState{
		Role:          "worker",
		Worker:        int(c.cfg.Worker.ID),
		Epoch:         uint16(c.gEpoch.Value()),
		Degraded:      c.Degraded(),
		SRTTNs:        c.gSRTT.Value(),
		RTONs:         c.gRTO.Value(),
		FrontierOff:   c.gFrontier.Value(),
		PendingChunks: c.gPending.Value(),
		Batch:         c.cfg.Batch,
		NetMode:       c.netMode(),
		Received:      c.recvd.Value(),
		Corrupted:     c.corrupt.Value(),
		Sent:          c.sent.Value(),
		SendErrors:    c.sendErrs.Value(),
		SendRetries:   c.sendRetryTotal(),
		Stats:         c.worker.Stats(),
		Fallback:      c.FallbackStats(),
		HomeRank:      c.HomeRank(),
		Failover:      c.FailoverStats(),
	}
}

// netMode names the client's netio mode for introspection. It reads
// the atomic view pointer: a re-home may swap the batched view under
// a concurrent monitoring read.
func (c *Client) netMode() string { return c.ncDbg.Load().Mode().String() }
