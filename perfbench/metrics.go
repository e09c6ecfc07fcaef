package main

// metricDef names one reported metric and its unit. Directions and
// bounds live in BENCHMARK.json; README.md maps each per-layer metric
// to the end-to-end metric it should move and the workloads where it
// should move or stay idle.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are printed, with tracing off, on every workload,
// each with a regression bound in BENCHMARK.json. "op" is the
// workload's unit of work: one step of both workers (resnet50-step),
// one AllReduceInt32 of both workers (small-tensor) or one SimulateRack
// call (sim-loss).
var endToEndMetrics = []metricDef{
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// namedMetrics are printed as text lines and in the perfbench-result
// record, without a bound. Wall-clock throughput and latency move
// between runs of the same code by more than any bound BENCHMARK.json
// allows on a shared 2-CPU host (README.md gives the spreads);
// host_steal_share, the CPU time the host gave to other guests during
// the run, says how much. Also here: the workloads' own names for
// their latency quantiles, the op count behind them, and two values a
// relative bound cannot apply to: sim_tat_ms is exact for a seed and
// ops_failed_ratio is 0 on every correct run.
var namedMetrics = []metricDef{
	{name: "ate_per_s", unit: "elements/s"},
	{name: "op_ms_p50", unit: "ms"},
	{name: "op_ms_p90", unit: "ms"},
	{name: "step_ms_p50", unit: "ms"},
	{name: "step_ms_p95", unit: "ms"},
	{name: "tat_us_p50", unit: "us"},
	{name: "tat_us_p99", unit: "us"},
	{name: "sim_wall_ms_p50", unit: "ms"},
	{name: "sim_tat_ms", unit: "ms"},
	{name: "host_steal_share", unit: "ratio"},
	{name: "ops_failed_ratio", unit: "ratio"},
	{name: "op_samples", unit: "count"},
}

// perLayerMetrics are printed by the traced run.
var perLayerMetrics = []metricDef{
	{name: "session.submit_us_p50", unit: "us"},
	{name: "session.wait_ms_p50", unit: "ms"},

	{name: "quant.quantize_ns_per_elem", unit: "ns/elem"},
	{name: "quant.dequantize_ns_per_elem", unit: "ns/elem"},

	{name: "packet.marshal_ns_per_pkt", unit: "ns/pkt"},
	{name: "packet.unmarshal_ns_per_pkt", unit: "ns/pkt"},

	{name: "core.switch_ns_per_update", unit: "ns/update"},
	{name: "core.worker_ns_per_result", unit: "ns/result"},
	{name: "core.updates_per_op", unit: "pkts/op"},
	{name: "core.completions_per_op", unit: "slots/op"},
	{name: "core.useful_ratio", unit: "ratio"},
	{name: "core.ignored_duplicates_per_op", unit: "pkts/op"},
	{name: "core.result_retransmissions_per_op", unit: "pkts/op"},

	{name: "transport.datagrams_per_op", unit: "dgrams/op"},
	{name: "transport.retransmissions_per_op", unit: "pkts/op"},
	{name: "transport.agg_batch_occupancy_p50", unit: "dgrams/wakeup"},
	{name: "transport.agg_batch_occupancy_p99", unit: "dgrams/wakeup"},
	{name: "transport.shard_datagrams_max_over_mean", unit: "ratio"},
	{name: "transport.send_retries_per_op", unit: "count/op"},
	{name: "transport.send_errors_per_op", unit: "count/op"},
	{name: "transport.allreduce_ns_per_pkt", unit: "ns/pkt"},

	{name: "proc.sys_cpu_ms_per_op", unit: "ms"},
	{name: "proc.user_cpu_ms_per_op", unit: "ms"},
	{name: "proc.vol_ctx_switches_per_op", unit: "count/op"},

	{name: "go.alloc_bytes_per_op", unit: "bytes/op"},
	{name: "go.allocs_per_op", unit: "allocs/op"},
	{name: "go.gc_cycles_per_op", unit: "count/op"},
	{name: "go.gc_pause_us_per_op", unit: "us"},

	{name: "netsim.packets_per_op", unit: "pkts/op"},
	{name: "netsim.drop_ratio", unit: "ratio"},
	{name: "netsim.wall_ns_per_packet", unit: "ns/pkt"},
	{name: "netsim.virtual_tat_ms", unit: "ms"},
	{name: "rack.retransmissions_per_op", unit: "pkts/op"},
	{name: "rack.wire_bytes_per_op", unit: "bytes/op"},

	{name: "trace.unattributed_share", unit: "ratio"},
	{name: "trace.overhead_ratio.op_ms_p50", unit: "ratio"},
	{name: "trace.overhead_ratio.op_ms_p90", unit: "ratio"},
	{name: "trace.overhead_ratio.cpu_ms_per_op", unit: "ratio"},
}

func allMetrics() []metricDef {
	var all []metricDef
	all = append(all, endToEndMetrics...)
	all = append(all, namedMetrics...)
	return append(all, perLayerMetrics...)
}
