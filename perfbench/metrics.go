package main

// metric is one entry of the benchmark's catalog. BENCHMARK.json at the
// repository root lists the same names, units and directions; the
// package tests hold the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees, printed by
// every untraced run (--trace 0) of every workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"host_mrefs_per_s", "Mrefs/s", "higher"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_rate", "fraction", "higher"},
}

// perLayer are the metrics of single layers, printed by every traced
// run (--trace 1) of every workload. A layer the workload does not pass
// through is measured by a small fixed probe of that layer, so every
// name always has a value; README.md maps each to the workload on
// which it is meaningful.
var perLayer = []metric{
	{"workload.build_s", "s", "lower"},
	{"workload.alloc_mb", "MB", "lower"},
	{"workload.share", "fraction", "lower"},
	{"trace.stream_s", "s", "lower"},
	{"trace.producer_blocked_s", "s", "lower"},
	{"trace.peak_pending_refs", "count", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.ns_per_ref", "ns", "lower"},
	{"sim.refs", "count", "lower"},
	{"sim.cycles", "count", "lower"},
	{"sim.bus_transactions", "count", "lower"},
	{"campaign.plan_ms", "ms", "lower"},
	{"experiment.idle_frac", "fraction", "lower"},
	{"report.render_ms", "ms", "lower"},
	{"server.submit_p50_ms", "ms", "lower"},
	{"server.submit_tail_ms", "ms", "lower"},
	{"server.queue_wait_p50_ms", "ms", "lower"},
	{"server.queue_wait_tail_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.dedup_ratio", "fraction", "higher"},
	{"cluster.forwarded", "count", "higher"},
	{"cluster.requeued", "count", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.put_mb_per_s", "MB/s", "higher"},
	{"store.replay_records_per_s", "records/s", "higher"},
	{"workload.self_s", "s", "lower"},
	{"trace.self_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"campaign.self_s", "s", "lower"},
	{"experiment.self_s", "s", "lower"},
	{"report.self_s", "s", "lower"},
	{"server.self_s", "s", "lower"},
	{"cluster.self_s", "s", "lower"},
	{"store.self_s", "s", "lower"},
	{"tracing.traced_wall_s", "s", "lower"},
	{"tracing.untraced_wall_s", "s", "lower"},
	{"tracing.overhead_s", "s", "lower"},
}
