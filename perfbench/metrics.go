package main

// metricDef declares one reported metric. The end-to-end metrics are the
// ones printed without tracing; the rest form the per-layer table printed
// by a traced run. BENCHMARK.json lists the same names and units.
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	EndToEnd bool
}

// metricDefs is every metric the benchmark reports, in output order. A
// per-layer metric a workload does not exercise reads 0 there.
var metricDefs = []metricDef{
	// End to end, on every workload.
	{"refresh_s", "s", "lower", true},
	{"setup_s", "s", "lower", true},
	{"peak_heap_bytes", "bytes", "lower", true},

	// Workload-specific user-visible numbers, measured untraced inside the
	// traced run.
	{"refresh_noopt_s", "s", "lower", false},
	{"read_p50_ms", "ms", "lower", false},
	{"solve_ms", "ms", "lower", false},
	{"sim_refresh_s", "s", "lower", false},
	{"failed_ratio", "ratio", "lower", false},

	// storage
	{"storage.read_calls", "count", "lower", false},
	{"storage.read_bytes", "bytes", "lower", false},
	{"storage.read_s", "s", "lower", false},
	{"storage.write_calls", "count", "lower", false},
	{"storage.write_bytes", "bytes", "lower", false},
	{"storage.write_s", "s", "lower", false},
	{"storage.device_sleep_s", "s", "lower", false},

	// memcat
	{"memcat.budget_bytes", "bytes", "lower", false},
	{"memcat.peak_bytes", "bytes", "lower", false},
	{"memcat.decoded_peak_bytes", "bytes", "lower", false},
	{"memcat.mem_reads", "count", "higher", false},
	{"memcat.disk_reads", "count", "lower", false},
	{"memcat.hit_ratio", "ratio", "higher", false},
	{"memcat.fallback_writes", "count", "lower", false},
	{"memcat.flag_fit_ratio", "ratio", "higher", false},
	{"memcat.evicted_bytes", "bytes", "higher", false},

	// exec
	{"exec.node_s", "s", "lower", false},
	{"exec.node_self_s", "s", "lower", false},
	{"exec.blocking_write_s", "s", "lower", false},
	{"exec.background_write_s", "s", "lower", false},
	{"exec.tail_s", "s", "lower", false},
	{"exec.parallelism", "ratio", "higher", false},
	{"engine.compute_s", "s", "lower", false},

	// colfmt, encoding and chunkio
	{"encoding.encode_s", "s", "lower", false},
	{"encoding.raw_bytes", "bytes", "lower", false},
	{"encoding.encoded_bytes", "bytes", "lower", false},
	{"colfmt.decode_s", "s", "lower", false},
	{"colfmt.decoded_bytes", "bytes", "lower", false},
	{"chunkio.chunks_passed", "count", "higher", false},
	{"chunkio.reencoded_chunks", "count", "lower", false},
	{"chunkio.dict_reused", "count", "higher", false},
	{"chunkio.passthrough_ratio", "ratio", "higher", false},

	// kernels
	{"kernels.lowered_ops", "count", "higher", false},
	{"kernels.fallbacks", "count", "lower", false},
	{"kernels.chunks_skipped", "count", "higher", false},
	{"kernels.decodes_avoided", "count", "higher", false},
	{"kernels.materialized_bytes", "bytes", "lower", false},
	{"kernels.join_probe_rows", "count", "lower", false},

	// opt, flagsel, order and knapsack
	{"opt.optimize_s", "s", "lower", false},
	{"opt.iterations", "count", "lower", false},
	{"opt.flagged_nodes", "count", "higher", false},
	{"opt.score_s", "s", "higher", false},
	{"opt.regret", "ratio", "lower", false},

	// costmodel and metrics
	{"costmodel.predicted_saving_s", "s", "higher", false},
	{"costmodel.measured_saving_s", "s", "higher", false},

	// sim
	{"sim.noopt_s", "s", "lower", false},
	{"sim.best_baseline_s", "s", "lower", false},

	// gateway and sched
	{"gateway.queue_wait_s", "s", "lower", false},
	{"gateway.run_s", "s", "lower", false},
	{"gateway.refresh_tail_s", "s", "lower", false},
	{"gateway.read_tail_ms", "ms", "lower", false},
	{"gateway.rejected", "count", "lower", false},
	{"gateway.expired", "count", "lower", false},
	{"gateway.reserved_peak_bytes", "bytes", "lower", false},
	{"gateway.used_peak_bytes", "bytes", "lower", false},
	{"gateway.reserve_ratio", "ratio", "lower", false},
	{"sched.borrows", "count", "higher", false},
	{"sched.idle_tokens_mean", "count", "lower", false},

	// runtime
	{"runtime.cpu_s", "s", "lower", false},
	{"runtime.cpu_busy_ratio", "ratio", "lower", false},
	{"runtime.gc_cpu_s", "s", "lower", false},
	{"runtime.alloc_bytes", "bytes", "lower", false},

	// loadgen and trace
	{"loadgen.late_ms", "ms", "lower", false},
	{"loadgen.refreshes", "count", "higher", false},
	{"loadgen.reads", "count", "higher", false},
	{"trace.overhead_ratio", "ratio", "lower", false},
}
