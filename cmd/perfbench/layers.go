package main

import "fmt"

// layerUnits lists the per-layer metrics a traced run reports, with the
// workloads that exercise each layer. On the other workloads the layer
// does no work and the metric reads 0.
var layerUnits = []struct {
	name, unit string
	on         []string
}{
	{"udptime.served", "req/round", serve},
	{"udptime.malformed", "req/round", serve},
	{"udptime.batch_fill", "req/batch", serve},
	{"udptime.user_us_per_req", "us/req", serve},
	{"udptime.sys_us_per_req", "us/req", serve},
	{"udptime.source_reads_per_kreq", "1/kreq", serve},
	{"udptime.source_read_ns", "ns/read", serve},
	{"udptime.stale_per_kreq", "1/kreq", serve},
	{"udptime.gen_lag_us", "us/req", serve},
	{"wire.parse_ns", "ns/parse", both},
	{"udptime.query_allocs", "allocs/query", syncW},
	{"udptime.syncim_us", "us/call", syncW},
	{"udptime.wait_overshoot_us", "us/wait", syncW},
	{"udptime.misplaced_per_kround", "1/kround", syncW},
	{"hlc.logical_max", "count", []string{"udp-sync", "sim-service"}},
	{"sim.events", "1/round", svc},
	{"sim.ns_per_event", "ns/event", svc},
	{"sim.allocs_per_event", "allocs/event", svc},
	{"simnet.messages", "1/round", svc},
	{"simnet.dropped", "1/round", svc},
	{"core.sync_calls", "1/round", svc},
	{"core.replies_per_sync", "replies/call", svc},
	{"core.sync_ns", "ns/call", svc},
	{"core.resets", "1/round", svc},
	{"core.inconsistencies", "1/round", svc},
	{"txn.commits", "1/round", svc},
	{"go.gc_cycles", "1/round", all},
	{"go.gc_pause_ms", "ms/round", all},
	{"shard.events", "1/round", scl},
	{"scale.ns_per_event", "ns/event", scl},
	{"shard.events_per_window", "events/window", scl},
	{"shard.merged_per_kevent", "1/kevent", scl},
	{"shard.imbalance", "ratio", scl},
	{"shard.busy_ratio", "ratio", scl},
	{"scale.resets", "1/round", scl},
	{"scale.inconsistencies", "1/round", scl},
	{"scale.hub_member_error_ratio", "ratio", scl},
	{"trace.overhead_pct", "%", all},
	{"host.steal_pct", "%", all},
}

var (
	serve = []string{"udp-serve"}
	syncW = []string{"udp-sync"}
	both  = []string{"udp-serve", "udp-sync"}
	svc   = []string{"sim-service"}
	scl   = []string{"sim-scale"}
	all   = []string{"udp-serve", "udp-sync", "sim-service", "sim-scale"}
)

// completeLayers checks that workload measured every layer it exercises
// and sets the others to 0.
func completeLayers(workload string, layer map[string]float64) error {
	for _, l := range layerUnits {
		exercised := false
		for _, w := range l.on {
			exercised = exercised || w == workload
		}
		_, ok := layer[l.name]
		switch {
		case exercised && !ok:
			return fmt.Errorf("layer metric %s not measured", l.name)
		case !exercised && ok:
			return fmt.Errorf("layer metric %s measured but not listed for %s", l.name, workload)
		case !exercised:
			layer[l.name] = 0
		}
	}
	return nil
}
