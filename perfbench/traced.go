package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"switchml"
)

// spansPerLane bounds the spans one lane keeps in memory; ops that do
// not fit are left unrecorded, whole.
const spansPerLane = 1 << 17

// tracedSlices is how many alternating untraced and traced slices the
// traced run's time is cut into, so that drift over the run does not
// land on one side of the overhead ratio.
const tracedSlices = 4

// measureTraced is the -trace 1 run. Untraced slices give the counters
// and process accounting per op and the base of the overhead ratios;
// traced slices record the spans the per-layer times come from. The
// replay harness runs last.
func measureTraced(o options, wl workload, r runner, res *result) error {
	m := res.Metrics
	c := clusterOf(r)
	if c != nil {
		if err := c.serveDebug(); err != nil {
			return err
		}
	}
	// One lane per goroutine that issues calls: each UDP worker, or
	// the simulator's single one.
	lanes := 1
	if c != nil {
		lanes = udpWorkers
	}
	tr := newTracer(lanes, spansPerLane)
	clean, traced := &phase{}, &phase{}
	var counters udpDelta
	for i := 0; i < tracedSlices; i++ {
		until := deadline(o.seconds / tracedSlices)
		if i%2 == 1 {
			p := r.run(until, 0, tr, false)
			res.add(p)
			traced.merge(p)
			continue
		}
		var a, b udpState
		var err error
		if c != nil {
			if a, err = c.state(); err != nil {
				return err
			}
		}
		p := r.run(until, 0, nil, false)
		res.add(p)
		clean.merge(p)
		if c != nil {
			if b, err = c.state(); err != nil {
				return err
			}
			counters.add(a, b)
		}
	}
	if o.spans != "" {
		if err := tr.write(filepath.Join(o.spans, wl.name+".jsonl")); err != nil {
			return err
		}
	}
	sum := tr.summarize()

	base, with := map[string]float64{}, map[string]float64{}
	endToEnd(base, wl, clean)
	endToEnd(with, wl, traced)
	for _, k := range []string{"op_ms_p50", "op_ms_p90", "cpu_ms_per_op"} {
		m["trace.overhead_ratio."+k] = with[k] / base[k]
	}
	if sum.rootNs > 0 {
		m["trace.unattributed_share"] = sum.selfNs / sum.rootNs
	}

	n, u := float64(clean.ops), clean.use
	m["proc.sys_cpu_ms_per_op"] = ms(u.sys) / n
	m["proc.user_cpu_ms_per_op"] = ms(u.user) / n
	m["proc.vol_ctx_switches_per_op"] = float64(u.volCtx) / n
	m["go.alloc_bytes_per_op"] = float64(u.allocBytes) / n
	m["go.allocs_per_op"] = float64(u.allocs) / n
	m["go.gc_cycles_per_op"] = float64(u.gcCycles) / n
	m["go.gc_pause_us_per_op"] = float64(u.gcPause) / 1e3 / n

	switch r := r.(type) {
	case *resnetStep:
		counters.layers(m, clean.ops)
		m["session.submit_us_p50"] = median(sum.durations[spanSubmit]) / 1e3
		m["session.wait_ms_p50"] = median(sum.durations[spanWait]) / 1e6
		m["transport.allreduce_ns_per_pkt"] = total(sum.durations[spanWait]) / (float64(sum.ops) * float64(r.packetsPerStep()))
		return r.replay(m)
	case *smallTensor:
		counters.layers(m, clean.ops)
		m["transport.allreduce_ns_per_pkt"] = total(sum.durations[spanAllReduce]) / (float64(sum.ops) * float64(chunks(smallElems)))
		return r.replay(m)
	case *simLoss:
		if err := r.completeRotation(); err != nil {
			return err
		}
		r.simLayers(m, sum)
	}
	return nil
}

// chunks is the number of update packets one worker sends for n
// elements.
func chunks(n int) int { return (n + udpSlotElems - 1) / udpSlotElems }

// udpDelta sums the aggregator and client counters over the untraced
// slices.
type udpDelta struct {
	stats                          switchml.AggregatorStats
	datagrams, retx, retries, errs uint64
	shards                         []uint64
	// last is the final reading: batch occupancy is a histogram over
	// the aggregator's life (warm-up op included), not a counter.
	last udpState
}

func (d *udpDelta) add(a, b udpState) {
	d.stats.Updates += b.stats.Updates - a.stats.Updates
	d.stats.Completions += b.stats.Completions - a.stats.Completions
	d.stats.IgnoredDuplicates += b.stats.IgnoredDuplicates - a.stats.IgnoredDuplicates
	d.stats.ResultRetransmissions += b.stats.ResultRetransmissions - a.stats.ResultRetransmissions
	d.datagrams += b.agg.Received - a.agg.Received + b.agg.Sent - a.agg.Sent
	d.retries += b.agg.SendRetries - a.agg.SendRetries
	d.errs += b.agg.SendErrors - a.agg.SendErrors
	for i := range b.clients {
		d.retx += b.clients[i].Stats.Retransmissions - a.clients[i].Stats.Retransmissions
		d.retries += b.clients[i].SendRetries - a.clients[i].SendRetries
		d.errs += b.clients[i].SendErrors - a.clients[i].SendErrors
	}
	if d.shards == nil {
		d.shards = make([]uint64, len(b.agg.ShardDatagrams))
	}
	for i := range b.agg.ShardDatagrams {
		d.shards[i] += b.agg.ShardDatagrams[i] - a.agg.ShardDatagrams[i]
	}
	d.last = b
}

// layers fills the core and transport metrics, per op over ops ops.
func (d *udpDelta) layers(m map[string]float64, ops int) {
	n := float64(ops)
	upd, comp := float64(d.stats.Updates), float64(d.stats.Completions)
	m["core.updates_per_op"] = upd / n
	m["core.completions_per_op"] = comp / n
	if upd > 0 {
		m["core.useful_ratio"] = comp * udpWorkers / upd
	}
	m["core.ignored_duplicates_per_op"] = float64(d.stats.IgnoredDuplicates) / n
	m["core.result_retransmissions_per_op"] = float64(d.stats.ResultRetransmissions) / n
	m["transport.datagrams_per_op"] = float64(d.datagrams) / n
	m["transport.retransmissions_per_op"] = float64(d.retx) / n
	m["transport.send_retries_per_op"] = float64(d.retries) / n
	m["transport.send_errors_per_op"] = float64(d.errs) / n
	m["transport.agg_batch_occupancy_p50"] = d.last.agg.BatchOccupancyP50
	m["transport.agg_batch_occupancy_p99"] = d.last.agg.BatchOccupancyP99
	var maxShard, all float64
	for _, v := range d.shards {
		all += float64(v)
		maxShard = math.Max(maxShard, float64(v))
	}
	if all > 0 {
		m["transport.shard_datagrams_max_over_mean"] = maxShard / (all / float64(len(d.shards)))
	}
}

func (r *resnetStep) packetsPerStep() int {
	n := 0
	for _, s := range r.in.sizes {
		n += chunks(s)
	}
	return n
}

// replay pushes one step of the workload's tensors through the quant,
// packet and core layers.
func (r *resnetStep) replay(m map[string]float64) error {
	sums := make([][]int32, len(r.in.sizes))
	for t := range sums {
		sums[t] = make([]int32, r.in.sizes[t])
		for w := 0; w < udpWorkers; w++ {
			for i, v := range r.in.quantized[0][w][t] {
				sums[t][i] += v
			}
		}
	}
	m["quant.quantize_ns_per_elem"], m["quant.dequantize_ns_per_elem"] = replayQuant(r.in.fp, r.in.grads[0][0], sums)
	var rounds [][][]int32
	for t := range r.in.sizes {
		var rd [][]int32
		for w := 0; w < udpWorkers; w++ {
			rd = append(rd, r.in.quantized[0][w][t])
		}
		rounds = append(rounds, rd)
	}
	return replayStream(m, rounds)
}

// smallReplayRounds is enough calls for the replay timings to resolve.
const smallReplayRounds = 8 * smallSets

func (s *smallTensor) replay(m map[string]float64) error {
	var rounds [][][]int32
	for i := 0; i < smallReplayRounds; i++ {
		rounds = append(rounds, s.in.vals[i%smallSets])
	}
	return replayStream(m, rounds)
}

func replayStream(m map[string]float64, rounds [][][]int32) error {
	st, err := recordStream(rounds)
	if err != nil {
		return err
	}
	if m["packet.marshal_ns_per_pkt"], m["packet.unmarshal_ns_per_pkt"], err = st.replayCodec(); err != nil {
		return err
	}
	m["core.switch_ns_per_update"], m["core.worker_ns_per_result"], err = st.replayCore()
	return err
}

// completeRotation runs, untimed, any simulator seed of the rotation
// the run has not reached yet, so the virtual metrics always cover all
// of them.
func (s *simLoss) completeRotation() error {
	for i := 0; i < simSeeds; i++ {
		if _, ok := s.perSeed[i]; ok {
			continue
		}
		p := s.run(time.Time{}, 1, nil, false)
		if p.failed > 0 {
			return fmt.Errorf("sim-loss rotation: %v", p.errs[0])
		}
	}
	return nil
}

// virtualTAT is the median simulated TAT over the seed rotation.
func (s *simLoss) virtualTAT() float64 {
	var xs []float64
	for _, r := range s.perSeed {
		xs = append(xs, ms(r.TAT))
	}
	return median(xs)
}

func (s *simLoss) simLayers(m map[string]float64, sum traceSummary) {
	c := map[string]uint64{}
	for _, r := range s.perSeed {
		for k, v := range r.Counters {
			c[k] += v
		}
	}
	n := float64(len(s.perSeed))
	upd, comp := float64(c["switch_updates"]), float64(c["switch_completions"])
	m["core.updates_per_op"] = upd / n
	m["core.completions_per_op"] = comp / n
	if upd > 0 {
		m["core.useful_ratio"] = comp * simWorkers / upd
	}
	m["core.ignored_duplicates_per_op"] = float64(c["switch_ignored_duplicates"]) / n
	m["core.result_retransmissions_per_op"] = float64(c["switch_shadow_reads"]) / n
	pkts := float64(c["packets_sent"]) / n
	m["netsim.packets_per_op"] = pkts
	if pkts > 0 {
		m["netsim.drop_ratio"] = float64(c["packets_dropped"]) / float64(c["packets_sent"])
		m["netsim.wall_ns_per_packet"] = median(sum.durations[spanSimulate]) / pkts
	}
	m["netsim.virtual_tat_ms"] = s.virtualTAT()
	m["rack.retransmissions_per_op"] = float64(c["worker_retransmissions"]) / n
	m["rack.wire_bytes_per_op"] = float64(c["wire_bytes"]) / n
}
