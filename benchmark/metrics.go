package main

// metricDef names one metric of the benchmark. The two lists below are
// the harness's copy of BENCHMARK.json; a unit test keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) reject a
	// change. Per-layer metrics have none.
	Bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics the benchmark gates: those that repeat
// within their bound whatever the host's neighbours do. setup_s is the
// one the contract requires; it has the contract's widest bound.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.02},
	{"alloc_bytes_per_op", "B", lower, 0.03},
	{"trace_bytes_per_op", "B", lower, 0.02},
}

// hostTimed lists the metrics a user sees that move with the host's
// speed. On the hosts this runs on they do not repeat within the caps
// the issue gives them (7% to 20%), so by the issue's rule they are
// reported and not gated: the untraced run prints them next to the
// end-to-end metrics, and they head the per-layer list, measured there
// over the traced run's untraced reps.
var hostTimed = []metricDef{
	{"ops_per_s", "ops/s", higher, 0},
	{"op_p50_us", "us", lower, 0},
	{"op_tail_us", "us", lower, 0},
	{"cpu_us_per_op", "us", lower, 0},
	{"peak_rss_mb", "MiB", lower, 0},
}

// perLayer lists the per-layer metrics in README order. Sources: (P) a
// probe of the layer's public functions in isolation, (C) a public
// counter's delta over the traced rep, (D) the stack's own profile
// dump, (S) a harness span. A workload that does not exercise a metric
// reports 0 for it.
var perLayer = append(append([]metricDef(nil), hostTimed...), []metricDef{
	// na
	{"na.send_to_cq_us", "us", lower, 0},
	{"na.rdma_get_us", "us", lower, 0},
	{"na.allocs_per_msg", "count", lower, 0},
	{"na.events_per_op", "count", lower, 0},
	{"na.cq_overflows", "count", lower, 0},
	// mercury
	{"mercury.encode_ns", "ns", lower, 0},
	{"mercury.decode_ns", "ns", lower, 0},
	{"mercury.codec_allocs", "count", lower, 0},
	{"mercury.batch_add_ns", "ns", lower, 0},
	{"mercury.rtt_self_us", "us", lower, 0},
	{"mercury.allocs_per_rtt", "count", lower, 0},
	{"mercury.bulk_bytes_per_op", "B", lower, 0},
	{"mercury.eager_overflows_per_op", "count", lower, 0},
	{"mercury.batched_ops_per_frame", "count", higher, 0},
	{"mercury.posted_handles_hwm", "count", lower, 0},
	{"mercury.cq_hwm", "count", lower, 0},
	{"mercury.stale_responses", "count", lower, 0},
	{"mercury.input_ser_us_per_op", "us", lower, 0},
	{"mercury.input_deser_us_per_op", "us", lower, 0},
	{"mercury.output_ser_us_per_op", "us", lower, 0},
	{"mercury.rdma_us_per_op", "us", lower, 0},
	{"mercury.origin_cb_us_per_op", "us", lower, 0},
	// abt
	{"abt.quantum_switch_ns", "ns", lower, 0},
	{"abt.spawn_to_run_us", "us", lower, 0},
	{"abt.eventual_wake_us", "us", lower, 0},
	{"abt.allocs_per_spawn", "count", lower, 0},
	{"abt.quanta_per_op", "count", lower, 0},
	{"abt.steals_per_op", "count", lower, 0},
	{"abt.parks_per_op", "count", lower, 0},
	{"abt.wakes_per_op", "count", lower, 0},
	{"abt.handler_pool_hwm", "count", lower, 0},
	{"abt.blocked_hwm", "count", lower, 0},
	// margo
	{"margo.forward_rtt_us", "us", lower, 0},
	{"margo.forward_self_us", "us", lower, 0},
	{"margo.forward_allocs", "count", lower, 0},
	{"margo.spin_polls_per_op", "count", lower, 0},
	{"margo.progress_parks_per_op", "count", lower, 0},
	{"margo.retries", "count", lower, 0},
	{"margo.timeouts", "count", lower, 0},
	{"margo.handler_wait_us_per_op", "us", lower, 0},
	{"margo.target_cb_us_per_op", "us", lower, 0},
	{"margo.unaccounted_frac", "ratio", lower, 0},
	// batch
	{"batch.coalesce_ratio", "count", higher, 0},
	{"batch.flushes_per_op", "count", lower, 0},
	{"batch.flush_by_size_frac", "ratio", higher, 0},
	// core
	{"core.record_ns", "ns", lower, 0},
	{"core.dump_ms", "ms", lower, 0},
	{"core.trace_events_per_op", "count", lower, 0},
	{"core.trace_dropped_frac", "ratio", lower, 0},
	{"core.sink_errors", "count", lower, 0},
	{"core.stage_off_gain", "ratio", lower, 0},
	// kv
	{"kv.put_ns", "ns", lower, 0},
	{"kv.get_ns", "ns", lower, 0},
	{"kv.allocs_per_put", "count", lower, 0},
	// services
	{"services.sdskv.put_p50_us", "us", lower, 0},
	{"services.sdskv.get_p50_us", "us", lower, 0},
	{"services.sdskv.putmulti_call_us", "us", lower, 0},
	{"services.sdskv.getmulti_call_us", "us", lower, 0},
	{"services.mobject.write_p50_us", "us", lower, 0},
	{"services.mobject.read_p50_us", "us", lower, 0},
	{"services.sdskv.put_packed_exec_us_per_op", "us", lower, 0},
	{"services.mobject.nested_rpcs_per_op", "count", lower, 0},
	{"services.hepnos.rpcs_per_event", "count", lower, 0},
	// analysis
	{"analysis.read_ms", "ms", lower, 0},
	{"analysis.merge_profiles_ms", "ms", lower, 0},
	{"analysis.merge_traces_ms", "ms", lower, 0},
	{"analysis.extract_paths_ms", "ms", lower, 0},
	{"analysis.fold_flame_ms", "ms", lower, 0},
	{"analysis.render_ms", "ms", lower, 0},
	{"analysis.allocs_per_request", "count", lower, 0},
	{"analysis.incomplete_requests", "count", lower, 0},
	// the benchmark itself
	{"bench.failed_frac", "ratio", lower, 0},
	{"bench.tracing_overhead_frac", "ratio", lower, 0},
	{"bench.ladder_residual_frac", "ratio", lower, 0},
	{"bench.profile_vs_probe_gap", "ratio", lower, 0},
}...)
