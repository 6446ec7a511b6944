package main

import "strings"

// declared is a metric name with its unit, as BENCHMARK.json lists it.
type declared struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run prints. Each workload
// fills every one; README.md maps them to the workload's own terms
// (capacity_cps, saturation_cps, graphs_per_s, ...). p99 is printed on
// the lines before the JSON but not gated: on a shared host its spread
// between runs follows the hypervisor's steal (README.md).
var endToEnd = []declared{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_MiB", "MiB"},
}

// layerMetrics are the metrics a traced run prints, in addition to
// overhead.<end-to-end name> for each end-to-end metric. A metric of a
// layer outside the workload's layerScope is reported as 0; one inside
// it that the traced pass did not measure fails the run.
var layerMetrics = []declared{
	// stubby: the stack's nine-component breakdown, read from the client
	// plane's retained spans, plus the benchmark's own call timing.
	{"stubby.client_send_queue_us.p50", "us"},
	{"stubby.client_send_queue_us.p99", "us"},
	{"stubby.req_proc_stack_us.p50", "us"},
	{"stubby.req_proc_stack_us.p99", "us"},
	{"stubby.server_recv_queue_us.p50", "us"},
	{"stubby.server_recv_queue_us.p99", "us"},
	{"stubby.server_app_us.p50", "us"},
	{"stubby.server_send_queue_us.p50", "us"},
	{"stubby.server_send_queue_us.p99", "us"},
	{"stubby.resp_proc_stack_us.p50", "us"},
	{"stubby.resp_proc_stack_us.p99", "us"},
	{"stubby.client_recv_queue_us.p50", "us"},
	{"stubby.client_recv_queue_us.p99", "us"},
	{"stubby.wire_us.p50", "us"},
	{"stubby.wire_us.p99", "us"},
	{"stubby.call_us.p50", "us"},
	{"stubby.call_us.p99", "us"},
	{"stubby.bulk_call_share", "ratio"},
	{"stubby.codec_jobs_per_call", "1/call"},

	// wire: system calls from /proc/<pid>/io, buffer pool counters.
	{"wire.write_syscalls_per_call.client", "1/call"},
	{"wire.write_syscalls_per_call.server", "1/call"},
	{"wire.read_syscalls_per_call.client", "1/call"},
	{"wire.read_syscalls_per_call.server", "1/call"},
	{"wire.bytes_per_write", "B"},
	{"wire.pool_gets_per_call", "1/call"},
	{"wire.pool_unreturned", "count"},

	// secure, codec, compressor: replays of the public functions on the
	// workload's sampled sizes, plus the stack's own byte counters.
	{"secure.seal_MBps", "MB/s"},
	{"secure.open_MBps", "MB/s"},
	{"secure.sealed_bytes_per_call", "B"},
	{"codec.marshal_ns", "ns"},
	{"codec.unmarshal_ns", "ns"},
	{"compressor.ratio", "ratio"},
	{"compressor.compress_MBps", "MB/s"},
	{"compressor.decompress_MBps", "MB/s"},
	{"compressor.skip_share", "ratio"},

	// telemetry and trace collection.
	{"telemetry.snapshot_ms", "ms"},
	{"trace.collector_overflow", "count"},

	// process: client and server children, from rusage and runtime/metrics.
	{"process.cpu_us_per_call.client", "us"},
	{"process.cpu_us_per_call.server", "us"},
	{"process.allocs_per_call", "1/call"},
	{"process.gc_cpu_share", "ratio"},
	{"process.ctx_switches_per_call", "1/call"},

	// loadgen: the open-loop generator's own bookkeeping.
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.inflight_max", "count"},
	{"loadgen.achieved_over_offered", "ratio"},

	// simulator and analysis plane.
	{"fleet.catalog_build_ms", "ms"},
	{"workload.gen_s", "s"},
	{"workload.spans", "count"},
	{"workload.fanin_edges", "count"},
	{"workload.motif_nodes", "count"},
	{"sim.exo_at_ns", "ns"},
	{"core.sink_s", "s"},
	{"core.merge_ms", "ms"},
	{"core.render_s", "s"},
	{"trace.write_MBps", "MB/s"},
	{"trace.decode_s", "s"},
	{"trace.dump_bytes_per_span", "B"},
}

// layerScope names, per workload, the prefixes of the per-layer metrics
// it exercises. unary_small sends no compressed payloads (its
// compressor figures are replays) and has no open-loop generator.
var layerScope = map[string][]string{
	"unary_small": {"stubby.", "wire.", "secure.", "codec.", "compressor.compress_MBps",
		"compressor.decompress_MBps", "telemetry.", "trace.collector_overflow", "process.", "fleet."},
	"fleet_mix": {"stubby.", "wire.", "secure.", "codec.", "compressor.", "telemetry.",
		"trace.collector_overflow", "process.", "loadgen.", "fleet."},
	"fleet_study": {"fleet.", "workload.", "sim.", "core.", "trace.write_MBps", "trace.decode_s",
		"trace.dump_bytes_per_span"},
}

// exercises reports whether workload measures the per-layer metric name.
func exercises(workload, name string) bool {
	for _, p := range layerScope[workload] {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
