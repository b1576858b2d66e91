package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// exact is the bound of a metric that two runs of one commit must print
// identically: any worsening at all is a real change to generated code or
// to the machine model.
const exact = 1e-9

// endToEnd are the numbers a user of the system sees, measured with
// tracing off. Every workload prints all of them. The sim_cycles_* and
// code_instrs metrics are simulated, deterministic and the same in every
// workload (see measureQuality); the rest are host measurements of the
// workload's own operations.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p99", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"sim_cycles_scalar_geomean", "cycles", "lower", exact},
	{"sim_cycles_full_p1_geomean", "cycles", "lower", exact},
	{"sim_cycles_full_p4_geomean", "cycles", "lower", exact},
	{"sim_cycles_tuned_p4_geomean", "cycles", "lower", exact},
	{"code_instrs_geomean", "count", "lower", exact},
}

// passNames are the mid-end passes a FullOptions pipeline runs, in order.
var passNames = []string{"inline", "scalarize", "nest-parallelize", "ifconvert", "vectorize", "parallelize", "strength", "cleanup"}

// perLayer are the numbers of single layers, from a traced run. A metric
// that does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// frontend
		{Name: "lexer.tokenize_ms", Unit: "ms", Better: "lower"},
		{Name: "lexer.tokens", Unit: "count", Better: "lower"},
		{Name: "parser.parse_ms", Unit: "ms", Better: "lower"},
		{Name: "sema.check_ms", Unit: "ms", Better: "lower"},
		{Name: "lower.file_ms", Unit: "ms", Better: "lower"},
		{Name: "lower.il_stmts", Unit: "count", Better: "lower"},
		// midend
		{Name: "pass.total_ms", Unit: "ms", Better: "lower"},
	}
	for _, p := range passNames {
		defs = append(defs, metricDef{Name: "pass." + p + "_ms", Unit: "ms", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "pass.il_stmts_after", Unit: "count", Better: "lower"},
		{Name: "inline.calls_expanded", Unit: "count", Better: "higher"},
		{Name: "vector.loops_examined", Unit: "count", Better: "higher"},
		{Name: "vector.loops_vectorized", Unit: "count", Better: "higher"},
		{Name: "vector.masked_stmts", Unit: "count", Better: "higher"},
		{Name: "parallel.loops_parallelized", Unit: "count", Better: "higher"},
		{Name: "parallel.loops_doacross", Unit: "count", Better: "higher"},
		{Name: "strength.loops_transformed", Unit: "count", Better: "higher"},
		{Name: "analysis.hit_ratio", Unit: "ratio", Better: "higher"},
		// codegen
		{Name: "codegen.generate_ms", Unit: "ms", Better: "lower"},
		{Name: "codegen.schedule_ms", Unit: "ms", Better: "lower"},
		{Name: "codegen.instrs", Unit: "count", Better: "lower"},
		// driver, the tracer itself, and the traced process
		{Name: "driver.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
		// titan
		{Name: "titan.new_machine_ms", Unit: "ms", Better: "lower"},
		{Name: "titan.run_ms", Unit: "ms", Better: "lower"},
		{Name: "titan.instrs", Unit: "count", Better: "lower"},
		{Name: "titan.cycles", Unit: "cycles", Better: "lower"},
		{Name: "titan.ipc", Unit: "ratio", Better: "higher"},
		{Name: "titan.host_ns_per_sim_instr", Unit: "ns", Better: "lower"},
		{Name: "titan.ns_per_instr.scalar_p1", Unit: "ns", Better: "lower"},
		{Name: "titan.ns_per_instr.doall_p4", Unit: "ns", Better: "lower"},
		{Name: "titan.ns_per_instr.doacross_p4", Unit: "ns", Better: "lower"},
		{Name: "titan.ns_per_instr.masked_p2", Unit: "ns", Better: "lower"},
		{Name: "titan.sync_stall_ratio", Unit: "ratio", Better: "lower"},
		{Name: "titan.join_idle_ratio", Unit: "ratio", Better: "lower"},
		{Name: "titan.mask_lane_utilization", Unit: "ratio", Better: "higher"},
		// tune
		{Name: "tune.tune_ms", Unit: "ms", Better: "lower"},
		{Name: "tune.candidates_measured", Unit: "count", Better: "lower"},
		{Name: "tune.decisions_non_default", Unit: "count", Better: "higher"},
		{Name: "tune.cycles_ratio", Unit: "ratio", Better: "lower"},
		// service
		{Name: "service.handler_ms", Unit: "ms", Better: "lower"},
		{Name: "service.transport_ms", Unit: "ms", Better: "lower"},
		{Name: "service.handler_direct_ms", Unit: "ms", Better: "lower"},
		{Name: "service.resp_bytes", Unit: "bytes", Better: "lower"},
		{Name: "service.hits.memory", Unit: "count", Better: "higher"},
		{Name: "service.hits.disk", Unit: "count", Better: "higher"},
		{Name: "service.hits.remote", Unit: "count", Better: "higher"},
		{Name: "service.hits.inflight", Unit: "count", Better: "higher"},
		{Name: "service.misses", Unit: "count", Better: "lower"},
		{Name: "service.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "service.evictions", Unit: "count", Better: "lower"},
		{Name: "service.rejected", Unit: "count", Better: "lower"},
		{Name: "service.client_ms_p50.memory", Unit: "ms", Better: "lower"},
		{Name: "service.client_ms_p50.disk", Unit: "ms", Better: "lower"},
		{Name: "service.client_ms_p50.remote", Unit: "ms", Better: "lower"},
		{Name: "service.client_ms_p50.compiled", Unit: "ms", Better: "lower"},
		{Name: "service.compile_share", Unit: "ratio", Better: "lower"},
		{Name: "service.cache_get_mem_us", Unit: "us", Better: "lower"},
		{Name: "service.cache_get_disk_us", Unit: "us", Better: "lower"},
		{Name: "service.cache_put_us", Unit: "us", Better: "lower"},
		// cluster
		{Name: "cluster.fetch_hits", Unit: "count", Better: "higher"},
		{Name: "cluster.fetch_misses", Unit: "count", Better: "lower"},
		{Name: "cluster.pushes", Unit: "count", Better: "lower"},
		{Name: "cluster.errors", Unit: "count", Better: "lower"},
	}...)
}()

// layerMetrics turns a folded trace into the per-layer metrics that come
// from spans and counts. Timings are the median over operations of the
// summed self time; counts are the median over operations of the summed
// count; ratios divide totals.
func layerMetrics(perOp map[string]map[int]float64) map[string]float64 {
	med := func(names ...string) float64 {
		sums := map[int]float64{}
		for _, name := range names {
			for op, v := range perOp[name] {
				sums[op] += v
			}
		}
		vals := make([]float64, 0, len(sums))
		for _, v := range sums {
			vals = append(vals, v)
		}
		return median(vals)
	}
	tot := func(name string) float64 {
		sum := 0.0
		for _, v := range perOp[name] {
			sum += v
		}
		return sum
	}
	const ms = 1e-6

	m := map[string]float64{
		"parser.parse_ms":     med("parser.parse") * ms,
		"sema.check_ms":       med("sema.check") * ms,
		"lower.file_ms":       med("lower.file") * ms,
		"lower.il_stmts":      med("lower.il_stmts"),
		"pass.total_ms":       med("pass.total_ns") * ms,
		"pass.il_stmts_after": med("pass.il_stmts_after"),
		"analysis.hit_ratio":  ratio(tot("analysis.hits"), tot("analysis.lookups")),
		"codegen.generate_ms": med("codegen.generate") * ms,
		"codegen.schedule_ms": med("codegen.schedule") * ms,
		"codegen.instrs":      med("codegen.instrs"),

		"titan.new_machine_ms":        med("titan.new_machine") * ms,
		"titan.run_ms":                med("titan.run") * ms,
		"titan.instrs":                med("titan.instrs"),
		"titan.cycles":                med("titan.cycles"),
		"titan.ipc":                   ratio(tot("titan.instrs"), tot("titan.cycles")),
		"titan.host_ns_per_sim_instr": ratio(tot("titan.host_ns"), tot("titan.instrs")),
		"titan.sync_stall_ratio":      ratio(tot("titan.sync_stall_cycles"), tot("titan.region_cycles")),
		"titan.join_idle_ratio":       ratio(tot("titan.join_idle_cycles"), tot("titan.region_cycles")),
		"titan.mask_lane_utilization": ratio(tot("titan.mask_lanes_active"), tot("titan.mask_lanes_total")),

		"tune.tune_ms":               med("tune.tune") * ms,
		"tune.candidates_measured":   med("tune.candidates_measured"),
		"tune.decisions_non_default": med("tune.decisions_non_default"),
		"tune.cycles_ratio":          ratio(tot("tune.tuned_cycles"), tot("tune.default_cycles")),

		"service.handler_ms": med("service.handler") * ms,
		// Client time minus the server's own: HTTP and the client's JSON.
		"service.transport_ms": med("client.encode", "client.round_trip", "client.decode") * ms,
		"service.resp_bytes":   med("service.resp_bytes"),
	}
	for _, p := range passNames {
		m["pass."+p+"_ms"] = med("pass."+p) * ms
	}
	for _, name := range []string{"inline.calls_expanded", "vector.loops_examined", "vector.loops_vectorized",
		"vector.masked_stmts", "parallel.loops_parallelized", "parallel.loops_doacross", "strength.loops_transformed"} {
		m[name] = med(name)
	}
	for _, p := range simPrograms {
		m["titan.ns_per_instr."+p.name] = ratio(tot("titan.host_ns."+p.name), tot("titan.instrs."+p.name))
	}
	for _, tier := range []string{"memory", "disk", "remote", "compiled"} {
		m["service.client_ms_p50."+tier] = med("service.client_ns."+tier) * ms
	}
	return m
}
