package main

// layerMetric declares one per-layer metric a traced run reports.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric, in the order of BENCHMARK.json.
var perLayer = func() []layerMetric {
	out := []layerMetric{
		{"sensor.synth_ns_per_sample", "ns"},
		{"sensor.synth_allocs_per_sample", "count"},
		{"gateway.encode_ns_per_sample", "ns"},
		{"gateway.encode_allocs_per_sample", "count"},
		{"gateway.decode_ns_per_sample", "ns"},
		{"gateway.decode_allocs_per_sample", "count"},
		{"gateway.wire_bytes_per_sample", "B"},
		{"mqtt.route_ns_per_publish.s1", "ns"},
		{"mqtt.route_ns_per_publish.s128", "ns"},
		{"mqtt.route_ns_per_publish.s1024", "ns"},
		{"mqtt.bridge_ns_per_msg", "ns"},
		{"mqtt.broker_dropped", "count"},
		{"mqtt.bridge_forwarded", "count"},
		{"telemetry.ingest_ns_per_sample", "ns"},
		{"telemetry.ingest_allocs_per_sample", "count"},
		{"tsdb.append_ns_per_sample.short", "ns"},
		{"tsdb.append_ns_per_sample.long", "ns"},
		{"tsdb.bytes_per_sample", "B"},
		{"sched.tick_self_us", "us"},
		{"tsdb.commit_us_per_tick", "us"},
		{"tsdb.read_us_per_tick", "us"},
		{"fleet.transport_us_per_tick", "us"},
		{"energyserve.window_hot_us", "us"},
		{"energyserve.window_cold_us", "us"},
		{"energyserve.users_us", "us"},
		{"energyserve.job_phases_us", "us"},
		{"energyserve.rack_power_us", "us"},
		{"energyserve.cache_hit_ratio", "ratio"},
		{"energyserve.bytes_per_response", "B"},
		{"tsdb.fetch_ns_per_point", "ns"},
		{"tsdb.energy_query_us", "us"},
	}
	for _, g := range attributionGroups() {
		out = append(out, layerMetric{g + ".self_cpu_ms_per_op", "ms"})
	}
	return append(out,
		layerMetric{"runtime.alloc_kb_per_op", "KB"},
		layerMetric{"runtime.gc_cycles_per_op", "count"},
		layerMetric{"bench.trace_overhead_pct", "%"},
	)
}()
