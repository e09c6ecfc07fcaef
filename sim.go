package switchml

import (
	"os"
	"time"

	"switchml/internal/core"
	"switchml/internal/netsim"
	"switchml/internal/rack"
	"switchml/internal/telemetry"
)

// LatePolicy selects what happens to a straggler's update arriving
// after its slot already completed at the quorum threshold.
type LatePolicy int

const (
	// LateDrop counts and discards late updates; the straggler's
	// gradient is excluded from that step (it still receives the
	// retained result, so it keeps pace with the stream).
	LateDrop LatePolicy = iota
	// LateReconcile folds a late update into the slot's next
	// aggregation phase, so the straggler's gradient lands one step
	// late instead of vanishing.
	LateReconcile
)

func (p LatePolicy) internal() core.LatePolicy {
	if p == LateReconcile {
		return core.LateReconcile
	}
	return core.LateDrop
}

// SimParams configures a deterministic single-rack simulation, the
// reproduction stand-in for the paper's testbed.
type SimParams struct {
	// Workers is n (required).
	Workers int
	// LinkGbps is the access-link rate in Gbps (default 10, the
	// paper's primary configuration).
	LinkGbps float64
	// PoolSize is s; zero applies the §3.6 tuning rule (next power of
	// two of BDP/b).
	PoolSize int
	// SlotElems is k (default 32).
	SlotElems int
	// LossRate is the per-link packet drop probability.
	LossRate float64
	// BurstLoss, when non-nil, replaces LossRate with a Gilbert–
	// Elliott burst-loss chain on every link (one independent chain
	// per link).
	BurstLoss *BurstLossParams
	// DupRate is the per-link packet duplication probability.
	DupRate float64
	// CorruptRate is the per-link corruption probability; corrupted
	// packets are dropped by the receiver's checksum.
	CorruptRate float64
	// Faults, when non-nil, is a deterministic fault script: worker
	// crashes and restarts, switch restarts, link blackouts and loss
	// changes at scripted virtual times.
	Faults *FaultScenario
	// Liveness tunes the failure detector; nil accepts defaults, which
	// are enabled automatically when Faults includes crashes or switch
	// restarts.
	Liveness *LivenessParams
	// Health tunes the switch health monitor and degradation
	// controller; nil accepts defaults, which are enabled automatically
	// when Faults includes FaultKillSwitch (unless NoFallback is set).
	Health *HealthParams
	// StartDegraded starts the job on the host all-reduce fabric
	// instead of the switch, as if a degrade had already happened;
	// pair it with Health.Probation < 0 to pin it there (the host
	// baseline the BENCH_fallback experiment measures).
	StartDegraded bool
	// StandbySwitches provisions warm-standby aggregation programs
	// behind the same crossbar: when the health monitor declares the
	// serving switch silent, the job is re-homed onto the next standby
	// rung (pool wiped under a bumped generation, resumed at the chunk
	// frontier) instead of degrading straight to host all-reduce. The
	// mesh remains the rung of last resort, and fail-up probation
	// returns the job to the primary once it answers probes again.
	// FaultKillStandby / FaultReviveStandby script standby outages.
	StandbySwitches int
	// StandbyLatency is the extra one-way latency charged on responses
	// served by a standby rung (it sits one hop deeper than the ToR);
	// zero selects 200 ns.
	StandbyLatency time.Duration
	// NoFallback opts out of degraded mode even when Faults kills the
	// switch: a dead switch then surfaces as ErrSwitchUnavailable
	// instead of a fabric handoff. With StandbySwitches set, the ladder
	// still runs — only the final mesh rung is removed, so a job whose
	// every rung is dead fails with ErrSwitchUnavailable.
	NoFallback bool
	// RTO is the retransmission timeout (default 1 ms, §5.5).
	RTO time.Duration
	// Cores is the per-worker core count (default 4, §5.1).
	Cores int
	// Seed drives the deterministic loss process.
	Seed int64
	// TraceFile, when non-empty, records every protocol event of the
	// run (transmissions, drops, retransmits, slot completions, shadow
	// reads, tensor spans) to a Chrome trace-event file that
	// chrome://tracing or https://ui.perfetto.dev can open.
	TraceFile string
	// SampleEvery, when positive, samples the run's metrics into time
	// series at this virtual-time period — counter rates, gauges
	// (including the health-mode gauge) and histogram interval
	// quantiles — reported in SimResult.Series.
	SampleEvery time.Duration
	// Quorum, when in [1, Workers), enables straggler mitigation: a
	// slot completes once this many distinct workers contributed, and
	// late updates are handled per LatePolicy. Zero (or Workers)
	// selects full participation.
	Quorum int
	// LatePolicy selects the fate of a straggler's update arriving
	// after its slot completed at quorum (LateDrop or LateReconcile).
	LatePolicy LatePolicy
	// Detached lists workers that exist in the rack but start outside
	// the job membership; a scripted FaultJoinWorker action admits
	// them at a step boundary (elastic join).
	Detached []int
	// FlightFile, when non-empty, arms a fault flight recorder: every
	// protocol event is retained in a ring, and each fault transition
	// (degrade, failback, reconfigure, crash detection) dumps a
	// self-contained JSON incident — the recent events, metric snapshot
	// and delta since the previous dump, and the switch's per-slot
	// state — to this path. The file is overwritten on each trigger, so
	// after the run it holds the last incident of the run.
	FlightFile string
}

// SimResult reports one simulated tensor aggregation.
type SimResult struct {
	// TAT is the tensor aggregation time of the slowest worker.
	TAT time.Duration
	// Retransmissions across all workers.
	Retransmissions uint64
	// PoolSize is the effective s after tuning.
	PoolSize int
	// Failed lists workers declared failed during the run (crashed or
	// evicted by the failure detector); their tensors were not
	// completed.
	Failed []int
	// Left lists workers that departed gracefully (FaultLeaveWorker) —
	// a clean exit, not a failure.
	Left []int
	// Detached lists workers outside the membership when the run
	// ended: never admitted, or gracefully departed.
	Detached []int
	// Aggregate is worker 0's result vector.
	Aggregate []int32
	// Counters is the run's protocol-counter dump: link traffic
	// (packets_sent, packets_delivered, packets_dropped, wire_bytes),
	// worker behaviour (worker_sent, worker_retransmissions, ...),
	// switch behaviour (switch_updates, switch_completions,
	// switch_shadow_reads, ...) and, when a health monitor ran, the
	// degradation controller (health_degrades, health_failbacks,
	// health_probes, health_probe_acks, host_aggregated_elems). With
	// StandbySwitches it also reports the failover ladder:
	// failover_rehomes (re-homings between rungs, descents and
	// fail-ups alike) and standby_updates / standby_completions (work
	// absorbed by standby rungs while the primary was down).
	Counters map[string]uint64
	// Series holds the sampled time series when SimParams.SampleEvery
	// is set, keyed by series name ("<counter>:rate", "<gauge>",
	// "<histogram>:p99", or a probe such as rack_pool_occupancy).
	Series map[string]Series
}

// SimulateRack aggregates one tensor (identical on every worker) on a
// simulated SwitchML rack and reports the timing. Results are
// bit-reproducible for a given seed.
func SimulateRack(params SimParams, tensor []int32) (SimResult, error) {
	cfg := rack.Config{
		Workers:         params.Workers,
		PoolSize:        params.PoolSize,
		SlotElems:       params.SlotElems,
		LinkBitsPerSec:  params.LinkGbps * 1e9,
		LossRate:        params.LossRate,
		DupRate:         params.DupRate,
		CorruptRate:     params.CorruptRate,
		RTO:             fromDuration(params.RTO),
		Cores:           params.Cores,
		LossRecovery:    true,
		Seed:            params.Seed,
		Faults:          params.Faults.internal(),
		Liveness:        params.Liveness.rack(),
		Health:          params.Health.rack(),
		StartDegraded:   params.StartDegraded,
		NoFallback:      params.NoFallback,
		StandbySwitches: params.StandbySwitches,
		StandbyLatency:  fromDuration(params.StandbyLatency),
		SampleEvery:     fromDuration(params.SampleEvery),
		Quorum:          params.Quorum,
		LatePolicy:      params.LatePolicy.internal(),
		Detached:        append([]int(nil), params.Detached...),
	}
	if params.BurstLoss != nil {
		ge := params.BurstLoss.internal()
		cfg.BurstLoss = &ge
	}
	var ring *telemetry.Ring
	if params.TraceFile != "" {
		ring = telemetry.NewRing(1 << 20)
		cfg.Tracer = ring
	}
	var rec *telemetry.FlightRecorder
	if params.FlightFile != "" {
		if cfg.Metrics == nil {
			cfg.Metrics = telemetry.NewRegistry()
		}
		rec = telemetry.NewFlightRecorder(telemetry.FlightConfig{
			Path:     params.FlightFile,
			Registry: cfg.Metrics,
		})
		// Incident files are written off the event loop; they must be
		// on disk before the caller reads them. A failed write is
		// ignored: incident files are best-effort diagnostics.
		defer rec.Close()
		if ring != nil {
			cfg.Tracer = telemetry.Fanout(ring, rec)
		} else {
			cfg.Tracer = rec
		}
	}
	r, err := rack.NewRack(cfg)
	if err != nil {
		return SimResult{}, err
	}
	if rec != nil {
		// Incidents embed the switch's per-slot state at dump time.
		rec.SetState(func() any { return r.PoolState(true) })
	}
	res, err := r.AllReduceShared(tensor)
	if err != nil {
		return SimResult{}, fabricErr(err)
	}
	if ring != nil {
		f, err := os.Create(params.TraceFile)
		if err != nil {
			return SimResult{}, err
		}
		if err := telemetry.WriteChromeTrace(f, ring.Events()); err != nil {
			f.Close()
			return SimResult{}, err
		}
		if err := f.Close(); err != nil {
			return SimResult{}, err
		}
	}
	// Report the first member's aggregate: when faults retire workers
	// mid-run (or elastic scripts detach them), worker 0 may hold no
	// completed tensor.
	survivor := 0
	skip := make(map[int]bool, len(res.Failed)+len(res.Detached))
	for _, w := range res.Failed {
		skip[w] = true
	}
	for _, w := range res.Detached {
		skip[w] = true
	}
	for skip[survivor] && survivor < params.Workers-1 {
		survivor++
	}
	agg := make([]int32, len(tensor))
	copy(agg, r.Aggregate(survivor))
	return SimResult{
		TAT:             res.TAT.Duration(),
		Retransmissions: res.Retransmissions,
		PoolSize:        r.Config().PoolSize,
		Failed:          append([]int(nil), res.Failed...),
		Left:            append([]int(nil), res.Left...),
		Detached:        append([]int(nil), res.Detached...),
		Aggregate:       agg,
		Counters:        r.Counters(),
		Series:          seriesFrom(r.Series()),
	}, nil
}

func fromDuration(d time.Duration) netsim.Time { return netsim.Time(d) }
