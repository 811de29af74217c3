package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json at the root of the repository
// lists the same names, units and directions; the self-test keeps the two in
// step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the system sees. Every workload reports
// all six, from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"tail_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the numbers of single modules, from a traced run. They have no
// bound: they explain a change in an end-to-end metric, they do not judge it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(better string) func(unit string, names ...string) {
		return func(unit string, names ...string) {
			for _, n := range names {
				ms = append(ms, metricDef{name: n, unit: unit, better: better})
			}
		}
	}
	lower, higher := add("lower"), add("higher")

	lower("ns", "spsc.queue.pair_ns", "spsc.queue.batch_ns_per_item", "spsc.queue.xfer_ns_per_item",
		"spsc.lane.pair_ns", "spsc.lane.spill_ns_per_item")
	lower("count", "spsc.lane.spills")

	lower("ns", "core.flat.cycle_ns", "core.rec.cycle_ns")
	lower("count", "core.flat.allocs_per_cycle", "core.rec.allocs_per_cycle", "core.allocs_per_op")
	lower("us", "core.epoch_turn_us.16", "core.epoch_turn_us.20016")
	higher("count", "core.ops_per_drain", "core.ops_per_flush")
	lower("count", "core.delegations", "core.syncs", "core.barriers", "core.steals", "core.spills")
	lower("ratio", "core.inline_share")

	lower("ns", "api.writable.cycle_ns", "api.readonly.cycle_ns", "api.reducible.cycle_ns",
		"api.ctx.nested_ns", "api.sequential.inline_ns", "api.delegate_call_ns", "api.queue_wait_ns")
	lower("us", "api.reclaim_us")

	for _, d := range appDefs {
		lower("ms", "apps."+d.name+".ss_ms", "apps."+d.name+".seq_ms")
		higher("x", "apps."+d.name+".speedup")
		lower("count", "apps."+d.name+".delegations")
		higher("ratio", "apps."+d.name+".isolation_share")
	}
	higher("x", "apps.hmean_speedup")

	lower("us", "serve.stage.admit_us", "serve.stage.route_us", "serve.stage.exec_us",
		"serve.stage.finish_us", "serve.stage.write_us", "serve.request_us", "serve.mem.req_us",
		"serve.durable_delta_us", "serve.rotation.stall_us.durable", "serve.rotation.stall_us.mem")
	lower("ms", "serve.new_ms", "serve.recover_ms", "serve.drain_ms")

	lower("ns", "durable.append.mem_ns", "durable.append.off_ns", "durable.append.rotation_ns")
	lower("us", "durable.append.always_us")
	lower("ms", "durable.snapshot.commit_ms")
	higher("MB/s", "durable.snapshot.mb_per_s")
	lower("ms", "durable.recover.ms_1k", "durable.recover.ms_20k")
	lower("B", "durable.fs.write_bytes_per_req")
	lower("1/s", "durable.fs.syncs_per_s")
	lower("ms", "durable.fs.sync_ms")

	lower("us", "http.socket_delta_us", "http.server_cpu_us_per_req")
	lower("ratio", "http.client_cpu_share")
	lower("ms", "http.boot_ms")
	lower("us", "http.metrics_scrape_us")

	lower("ns", "bench.canary_ns")
	lower("count", "bench.rounds_dropped", "bench.selfcheck_failures")
	higher("x", "bench.trace_overhead")
	return ms
}

// metric is one reported value; result is the line a run ends with.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill turns measured values into the result's metrics: every declared name
// exactly once, with its unit, and a finite value.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for k := range values {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured but not declared: %v", extra)
	}
	return out, nil
}
