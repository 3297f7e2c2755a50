package main

// The per-layer table of the traced pass: layer probes (c), counts the
// program already reports (a), benchmark-side setup spans (b), and the
// outside-in share estimate that combines them.

import (
	"strconv"
)

// perLayer lists every per-layer metric by name with its unit, in print
// order. BENCHMARK.json carries the same list; the smoke test holds the two
// together.
var perLayer = []struct{ name, unit string }{
	{"vtime.sched_ns_per_event", "ns"},
	{"vtime.sched_allocs_per_event", "allocs/op"},
	{"vtime.events_per_hop", "count"},
	{"pipes.enq_deq_ns", "ns"},
	{"pipes.enq_deq_allocs", "allocs/op"},
	{"pipes.drop_share", "share"},
	{"emucore.hop_ns", "ns"},
	{"emucore.hop_allocs", "allocs/op"},
	{"emucore.hop_default_ns", "ns"},
	{"emucore.allocs_per_hop", "allocs/op"},
	{"netstack.udp_pkt_ns", "ns"},
	{"netstack.tcp_seg_ns", "ns"},
	{"netstack.tcp_seg_allocs", "allocs/op"},
	{"netstack.rpc_call_ns", "ns"},
	{"netstack.retransmit_share", "share"},
	{"bind.matrix_lookup_ns", "ns"},
	{"bind.cache_hit_ns", "ns"},
	{"bind.cache_miss_ns", "ns"},
	{"bind.shardtable_lookup_ns", "ns"},
	{"bind.shardtable_field_ms", "ms"},
	{"bind.matrix_build_ms", "ms"},
	{"bind.shardviews_ms", "ms"},
	{"topology.build_ms", "ms"},
	{"distill.ms", "ms"},
	{"assign.kclusters_ms", "ms"},
	{"parcore.sync_plan_ms", "ms"},
	{"parcore.outbox_handoff_ns", "ns"},
	{"parcore.apply_ns_per_msg", "ns"},
	{"parcore.apply_allocs_per_msg", "allocs/op"},
	{"parcore.bounds_ns", "ns"},
	{"parcore.windows", "count"},
	{"parcore.msgs_per_window", "count"},
	{"parcore.grant_mean_ms", "ms"},
	{"parcore.lookahead_util", "share"},
	{"parcore.run_ns_per_event", "ns"},
	{"parcore.barrier_share", "share"},
	{"parcore.compute_share", "share"},
	{"wire.batch_enc_ns_per_msg", "ns"},
	{"wire.batch_dec_ns_per_msg", "ns"},
	{"wire.batch_allocs_per_msg", "allocs/op"},
	{"wire.bytes_per_msg", "bytes"},
	{"wire.payload_enc_ns", "ns"},
	{"wire.step_codec_ns", "ns"},
	{"wire.shardview_enc_ms", "ms"},
	{"fednet.run_ns_per_event", "ns"},
	{"fednet.flush_ns_per_msg", "ns"},
	{"fednet.apply_ns_per_msg", "ns"},
	{"fednet.wait_share", "share"},
	{"fednet.barrier_us_per_window", "us"},
	{"fednet.unaccounted_share", "share"},
	{"fednet.frames_per_window", "count"},
	{"fednet.setup_bytes", "bytes"},
	{"fednet.startup_ms", "ms"},
	{"fednet.spawn_join_ms", "ms"},
	{"fednet.route_rpcs", "count"},
	{"obs.trace_event_ns", "ns"},
	{"obs.trace_on_ns_per_hop", "ns"},
	{"share.vtime", "share"},
	{"share.pipes", "share"},
	{"share.emucore", "share"},
	{"share.netstack", "share"},
	{"share.bind", "share"},
	{"share.parcore", "share"},
	{"share.wire", "share"},
	{"share.fednet", "share"},
	{"share.unattributed", "share"},
	{"trace.overhead_pct", "%"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles one workload's per-layer table. probes are the
// layer probes' results, traced the traced run, hops the workload's
// packet-hops, untracedNs the median timed wall of the untraced repeats,
// overheadPct the traced runs' extra wall, and pkt the extra Options.Trace
// run (nil except on ring-seq). A metric a workload's mode does not have
// reads 0.
func layerMetrics(w *workload, probes map[string]float64, traced *childRun, hops uint64, untracedNs, overheadPct float64, pkt *childRun) map[string]float64 {
	m := map[string]float64{}
	for _, l := range perLayer {
		m[l.name] = probes[l.name] // 0 for everything that is not a probe
	}
	c := traced.Counts
	wall := float64(traced.TimedNs)
	h := float64(hops)
	injected := float64(traced.Totals.Injected)
	vdrops := float64(traced.Totals.VirtualDrops)

	m["vtime.events_per_hop"] = ratio(c["events"], h)
	m["pipes.drop_share"] = ratio(vdrops, h+vdrops)
	m["emucore.allocs_per_hop"] = ratio(c["mallocs"], h)
	m["netstack.retransmit_share"] = ratio(c["retransmits"], c["segments"])
	for metric, count := range map[string]string{
		"topology.build_ms": "topology_build_ms", "distill.ms": "distill_ms",
		"assign.kclusters_ms": "kclusters_ms", "parcore.sync_plan_ms": "sync_plan_ms",
		"bind.matrix_build_ms": "matrix_build_ms", "bind.shardviews_ms": "shardviews_ms",
		"bind.shardtable_field_ms": "shardtable_field_ms", "wire.shardview_enc_ms": "shardview_enc_ms",
	} {
		m[metric] = c[count]
	}
	m["trace.overhead_pct"] = overheadPct
	if pkt != nil {
		m["obs.trace_on_ns_per_hop"] = ratio(float64(pkt.TimedNs)-untracedNs, h)
	}

	// Per-shard buckets: the run waits on the slower shard, so single-name
	// metrics report the worst shard and never a sum.
	n := int(c["shards"])
	shard := func(i int, key string) float64 { return c["shard"+strconv.Itoa(i)+"."+key] }
	var maxCompute, maxBusy, maxAll, runPerEvent, slowRun float64
	for i := 0; i < n; i++ {
		compute := shard(i, "run_ns") + shard(i, "apply_ns") + shard(i, "drain_ns")
		busy := compute + shard(i, "flush_ns")
		maxCompute = max(maxCompute, compute)
		maxBusy = max(maxBusy, busy)
		maxAll = max(maxAll, busy+shard(i, "wait_ns"))
		if r := shard(i, "run_ns"); r >= slowRun {
			slowRun, runPerEvent = r, ratio(r, shard(i, "events"))
		}
		if w.mode == modeFed {
			m["fednet.flush_ns_per_msg"] = max(m["fednet.flush_ns_per_msg"], ratio(shard(i, "flush_ns"), shard(i, "msgs_out")))
			m["fednet.apply_ns_per_msg"] = max(m["fednet.apply_ns_per_msg"], ratio(shard(i, "apply_ns"), shard(i, "msgs_in")))
			m["fednet.wait_share"] = max(m["fednet.wait_share"], ratio(shard(i, "wait_ns"), wall))
		}
	}
	windows, messages := c["windows"], c["messages"]
	if n > 0 {
		m["parcore.windows"] = windows
		m["parcore.msgs_per_window"] = ratio(messages, windows)
		m["parcore.grant_mean_ms"] = c["grant_mean_ms"]
		m["parcore.lookahead_util"] = c["lookahead_util"]
		m["parcore.barrier_share"] = ratio(c["drive_barrier_ns"], wall)
		m["parcore.compute_share"] = ratio(c["drive_compute_ns"], wall)
	}
	switch w.mode {
	case modeInproc:
		m["parcore.run_ns_per_event"] = runPerEvent
	case modeFed:
		m["fednet.run_ns_per_event"] = runPerEvent
		m["fednet.barrier_us_per_window"] = ratio(wall-maxBusy, windows) / 1e3
		m["fednet.unaccounted_share"] = 1 - ratio(maxAll, wall)
		m["fednet.frames_per_window"] = ratio(c["frames"], windows)
		m["fednet.setup_bytes"] = c["setup_bytes"]
		m["fednet.startup_ms"] = c["startup_ms"]
		m["fednet.spawn_join_ms"] = c["spawn_join_ms"]
		m["fednet.route_rpcs"] = c["route_rpcs"]
	}

	// share.*: probe ns/op × the workload's op count ÷ timed wall. Work on
	// a parallel workload is split over shards that run side by side, so it
	// is divided by the shard count (balanced shards assumed). The estimate
	// is outside-in: it may over- or under-shoot, and share.unattributed is
	// whatever it leaves, negative included, so the columns sum to 1.
	per := 1.0
	if w.mode != modeSeq {
		per = shards
	}
	sched := probes["vtime.sched_ns_per_event"]
	hop := probes["emucore.hop_ns"]
	if w.hardware {
		hop = probes["emucore.hop_default_ns"]
	}
	var pktNs float64
	switch w.transport {
	case "udp":
		pktNs = probes["netstack.udp_pkt_ns"] - sched
	case "tcp":
		pktNs = probes["netstack.tcp_seg_ns"] - sched
	case "rpc":
		pktNs = probes["netstack.rpc_call_ns"]/2 - sched
	}
	lookup := probes[w.table]
	// A hop cannot spend more in pipes than it costs in all (under the
	// hardware profile the core drains several packets per tick, which the
	// pipe probe's one-at-a-time loop does not), and what is left of the
	// hop after its pipe work and its one scheduler event is emucore's own.
	pipeNs := min(probes["pipes.enq_deq_ns"], hop)
	share := map[string]float64{
		"vtime":    sched * c["events"] / per,
		"pipes":    pipeNs * h / per,
		"emucore":  max(0, (hop-pipeNs)*h-sched*min(c["events"], h)) / per,
		"netstack": max(0, pktNs) * injected / per,
		"bind":     lookup * injected / per,
	}
	if w.mode != modeSeq {
		share["parcore"] = (probes["parcore.outbox_handoff_ns"]+probes["parcore.apply_ns_per_msg"])*messages/per +
			probes["parcore.bounds_ns"]*windows
	}
	if w.mode == modeFed {
		share["wire"] = (probes["wire.batch_enc_ns_per_msg"]+probes["wire.batch_dec_ns_per_msg"])*messages/per +
			probes["wire.step_codec_ns"]*windows
		// Whatever part of the wall the slowest shard was not computing —
		// sockets, barrier round trips, the coordinator — less the codec
		// work already priced under wire.
		share["fednet"] = max(0, wall-maxCompute-share["wire"])
	}
	rest := 1.0
	for layer, ns := range share {
		s := ratio(ns, wall)
		m["share."+layer] = s
		rest -= s
	}
	m["share.unattributed"] = rest
	return m
}
