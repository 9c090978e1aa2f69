package main

// metricDef names one reported metric, its unit and its clock: "host"
// for host time or memory, "scaled" for host time scaled to the
// reference kernel's speed (reference.go), "sim" for simulated time or
// simulated outputs, "count" for a count or ratio.
type metricDef struct {
	name, unit, clock string
}

// endToEnd are the metrics of untraced runs (-trace 0): what a user of
// the simulator pays and gets.
var endToEnd = []metricDef{
	{"setup_s", "s", "scaled"},
	{"steps_per_s", "1/s", "scaled"},
	{"cpu_us_per_step", "us", "scaled"},
	{"peak_rss_mb", "MB", "host"},
	{"allocs_per_step", "count", "host"},
	{"alloc_bytes_per_step", "B", "host"},
	{"agg_mbps", "MB/s", "sim"},
}

// perLayer are the metrics of traced runs (-trace 1). A metric a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	// CPU from the profile, per traced episode, folded by the innermost
	// tango/internal/<pkg> frame.
	{"profile.cpu_s", "s", "host"},
	{"sim.cpu_s", "s", "host"},
	{"runtime.sched_cpu_s", "s", "host"},
	{"runtime.gc_cpu_s", "s", "host"},
	{"other.cpu_s", "s", "host"},
	{"device.cpu_s", "s", "host"},
	{"blkio.cpu_s", "s", "host"},
	{"refactor.cpu_s", "s", "host"},
	{"errmetric.cpu_s", "s", "host"},
	{"synth.cpu_s", "s", "host"},
	{"tensor.cpu_s", "s", "host"},
	{"par.cpu_s", "s", "host"},
	{"dftestim.cpu_s", "s", "host"},
	{"core.cpu_s", "s", "host"},
	{"staging.cpu_s", "s", "host"},
	{"coordinator.cpu_s", "s", "host"},
	{"weightfn.cpu_s", "s", "host"},
	{"abplot.cpu_s", "s", "host"},
	{"container.cpu_s", "s", "host"},
	{"workload.cpu_s", "s", "host"},
	{"trace.cpu_s", "s", "host"},
	{"cache.cpu_s", "s", "host"},
	{"resil.cpu_s", "s", "host"},
	{"tokenctl.cpu_s", "s", "host"},
	{"fault.cpu_s", "s", "host"},
	{"fleet.cpu_s", "s", "host"},
	{"objstore.cpu_s", "s", "host"},
	{"runpool.cpu_s", "s", "host"},

	// Spans around the benchmark's calls into each layer, per traced
	// episode.
	{"synth.generate_s", "s", "host"},
	{"refactor.decompose_s", "s", "host"},
	{"staging.stage_s", "s", "host"},
	{"core.new_session_s", "s", "host"},
	{"fleet.new_s", "s", "host"},
	{"sim.run_s", "s", "host"},
	{"fleet.run_s", "s", "host"},
	{"trace_overhead_frac", "ratio", "host"},
	{"sim.step_us_first_q", "us", "host"},
	{"sim.step_us_last_q", "us", "host"},
	{"runtime.gc_cycles", "count", "host"},
	{"runtime.gc_pause_s", "s", "host"},

	// Simulated outputs and counts from the layers' public accessors.
	{"io_p50_s", "s", "sim"},
	{"io_p99_s", "s", "sim"},
	{"io_samples", "count", "count"},
	{"fail_frac", "ratio", "count"},
	{"core.dof_frac_mean", "ratio", "sim"},
	{"core.mb_per_step", "MB", "sim"},
	{"core.base_time_frac", "ratio", "sim"},
	{"core.retries", "count", "count"},
	{"core.degraded_steps", "count", "count"},
	{"dftestim.pred_rel_err_p50", "ratio", "sim"},
	{"device.nvme.busy_frac", "ratio", "sim"},
	{"device.ssd.busy_frac", "ratio", "sim"},
	{"device.hdd.busy_frac", "ratio", "sim"},
	{"device.nvme.active_flows_end", "count", "count"},
	{"device.ssd.active_flows_end", "count", "count"},
	{"device.hdd.active_flows_end", "count", "count"},
	{"sim.live_procs_end", "count", "count"},
	{"sim.procs_spawned", "count", "count"},
	{"blkio.session_read_mb", "MB", "sim"},
	{"blkio.noise_write_mb", "MB", "sim"},
	{"cache.hit_ratio", "ratio", "sim"},
	{"cache.evicted_mb", "MB", "sim"},
	{"cache.staged_mb", "MB", "sim"},
	{"resil.useful_frac", "ratio", "count"},
	{"resil.timeouts", "count", "count"},
	{"resil.hedges", "count", "count"},
	{"resil.wasted_mb", "MB", "sim"},
	{"resil.breaker_opens", "count", "count"},
	{"tokenctl.writes", "count", "count"},
	{"tokenctl.borrows", "count", "count"},
	{"fault.injected", "count", "count"},
	{"fault.unpaired", "count", "count"},
	{"fleet.migrations", "count", "count"},
	{"fleet.violations", "count", "count"},
	{"fleet.skipped_steps", "count", "count"},
	{"objstore.egress_gb", "GB", "sim"},
	{"objstore.requests", "count", "count"},
}
