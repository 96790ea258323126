package main

import (
	"sort"
)

// layerRow is one per-layer metric with the cache state it was measured in:
// cold, warm-store, tally-hit or disk (n/a where the workload does not
// exercise the layer; the value is then 0).
type layerRow struct {
	name  string
	value float64
	unit  string
	state string
}

// layerRows turns the replay into the per-layer metrics. Per-request
// quantities are means over the replayed requests, so the self times of
// one request add up to its client round trip.
func layerRows(w *workload, t *tracer, k kernels, tier map[string]float64, loadS, warmS float64) []layerRow {
	rs := t.reqs
	n := float64(len(rs))
	mean := func(f func(*replayReq) float64) float64 {
		s := 0.0
		for i := range rs {
			s += f(&rs[i])
		}
		return s / n
	}
	sum := func(f func(*replayReq) float64) float64 { return mean(f) * n }
	state := w.state
	cluster := t.seq[0].req.Cluster != nil
	naIf := func(on bool, s string) string {
		if on {
			return s
		}
		return "n/a"
	}
	coreState := naIf(cluster, "warm-store")
	// The daemon's scatters meet worker tally caches warmed by the same
	// prefix; the cache-off scatter and the local replay meet none.
	shardHit, shardCold := naIf(t.sharded(), "tally-hit"), naIf(t.sharded(), "warm-store")

	refused := 0.0
	adaptive, adaptiveUsed := 0.0, 0.0
	pairReqs := 0.0
	for i := range rs {
		if !rs[i].ok {
			refused++
		}
		if rs[i].adaptive {
			adaptive++
			adaptiveUsed += rs[i].adaptiveUsed
		}
		if rs[i].pairs > 0 {
			pairReqs++
		}
	}
	clientOn, clientOff := sum(func(r *replayReq) float64 { return r.client }), sum(func(r *replayReq) float64 { return r.clientOff })
	plain, explain := sum(func(r *replayReq) float64 { return r.plain }), sum(func(r *replayReq) float64 { return r.explain })
	hits := sum(func(r *replayReq) float64 { return float64(r.st.Hits) })
	mats := sum(func(r *replayReq) float64 { return float64(r.st.Materializations) })
	calls := sum(func(r *replayReq) float64 { return float64(r.calls) })
	wHit, wMiss := sum(func(r *replayReq) float64 { return float64(r.wHit) }), sum(func(r *replayReq) float64 { return float64(r.wMiss) })
	below := func(r *replayReq) float64 {
		if t.sharded() {
			return r.local
		}
		return r.oracle
	}
	// The fabric's own cost compares the cache-off scatter with the local
	// replay: both tally every world, so the difference is wire, scatter
	// and merge alone. What the worker caches save is scatter_ms minus
	// scatter_ms.nocache.
	shardOverhead := 0.0
	if t.sharded() {
		shardOverhead = mean(func(r *replayReq) float64 { return r.nocache - r.local })
	}

	return []layerRow{
		{"http.transport_ms", mean(func(r *replayReq) float64 { return r.client - r.handler }), "ms", state},
		{"http.response_kb", mean(func(r *replayReq) float64 { return float64(r.bytes) / 1024 }), "KiB", state},
		{"server.handler_ms", mean(func(r *replayReq) float64 { return r.handler }), "ms", state},
		{"server.self_ms", mean(func(r *replayReq) float64 { return r.handler - r.rung }), "ms", state},
		{"server.refused_per_1k", 1000 * refused / n, "1/1000", state},
		{"core.run_ms", coreOnly(cluster, mean(func(r *replayReq) float64 { return r.rung })), "ms", coreState},
		{"core.self_ms", coreOnly(cluster, mean(func(r *replayReq) float64 { return r.rung - r.oracle })), "ms", coreState},
		{"core.invocations", mean(func(r *replayReq) float64 { return float64(r.stats.Invocations) }), "count", coreState},
		{"core.oracle_calls", mean(func(r *replayReq) float64 { return float64(r.stats.OracleCalls) }), "count", coreState},
		{"core.max_samples", mean(func(r *replayReq) float64 { return float64(r.stats.MaxSamples) }), "worlds", coreState},
		{"conn.oracle_ms", mean(func(r *replayReq) float64 { return r.oracle }), "ms", state},
		{"conn.self_ms", mean(func(r *replayReq) float64 { return below(r) - r.ws - r.pair }), "ms", state},
		{"conn.batch_calls", calls / n, "count", state},
		{"conn.centers_per_call", ratio(sum(func(r *replayReq) float64 { return float64(r.centers) }), calls), "count", state},
		{"conn.world_extensions", mean(func(r *replayReq) float64 { return float64(r.extWorlds) }), "count", state},
		{"conn.tally_hit_ratio", ratio(sum(func(r *replayReq) float64 { return float64(r.hits) }), sum(func(r *replayReq) float64 { return float64(r.lookups) })), "fraction", state},
		{"conn.adaptive_worlds_used", ratio(adaptiveUsed, adaptive), "fraction", naIf(adaptive > 0, state)},
		{"worldstore.count_ms", mean(func(r *replayReq) float64 { return r.ws }), "ms", state},
		{"worldstore.pair_ms", mean(func(r *replayReq) float64 { return r.pair }), "ms", naIf(pairReqs > 0, state)},
		{"worldstore.block_hits", hits / n, "count", state},
		{"worldstore.materializations", mats / n, "count", state},
		{"worldstore.disk_hits", mean(func(r *replayReq) float64 { return float64(r.st.DiskHits) }), "count", state},
		{"worldstore.recomputes", mean(func(r *replayReq) float64 { return float64(r.st.Recomputes) }), "count", state},
		{"worldstore.evictions", mean(func(r *replayReq) float64 { return float64(r.st.Evictions) }), "count", state},
		{"worldstore.spill_writes", mean(func(r *replayReq) float64 { return float64(r.st.SpillWrites) }), "count", state},
		{"worldstore.hit_ratio", ratio(hits, hits+mats), "fraction", state},
		{"worldstore.resident_mb", mean(func(r *replayReq) float64 { return float64(r.resident) }) / (1 << 20), "MiB", state},
		{"worldstore.accum_worlds", mean(func(r *replayReq) float64 { return float64(r.st.AccumWorlds) }), "count", state},
		{"worldstore.direct_worlds", mean(func(r *replayReq) float64 { return float64(r.st.DirectWorlds) }), "count", state},
		{"worldstore.labels_block_ms.cold", tier["labels_block_ms.cold"], "ms", "cold"},
		{"worldstore.labels_block_ms.disk", tier["labels_block_ms.disk"], "ms", "disk"},
		{"worldstore.labels_block_ms.recompute", tier["labels_block_ms.recompute"], "ms", "cold"},
		{"worldstore.bits_block_ms.cold", tier["bits_block_ms.cold"], "ms", "cold"},
		{"worldstore.bits_block_ms.disk", tier["bits_block_ms.disk"], "ms", "disk"},
		{"sampler.labels_us_per_world", k.labelsUS, "us", "cold"},
		{"sampler.bitmap_us_per_world", k.bitmapUS, "us", "cold"},
		{"sampler.reach_us_per_world", k.reachUS, "us", "cold"},
		{"sampler.direct_us_per_world", k.directUS, "us", "cold"},
		{"sampler.edges_present_frac", k.present, "fraction", "cold"},
		{"shard.scatter_ms", shardOnly(t, mean(func(r *replayReq) float64 { return r.oracle })), "ms", shardHit},
		{"shard.overhead_ms", shardOverhead, "ms", shardCold},
		{"shard.scatter_ms.nocache", mean(func(r *replayReq) float64 { return r.nocache }), "ms", shardCold},
		{"shard.wire_kb", mean(func(r *replayReq) float64 { return float64(r.wire) / 1024 }), "KiB", shardHit},
		{"shard.worker_requests", mean(func(r *replayReq) float64 { return float64(r.wReq) }), "count", shardHit},
		{"shard.worker_worlds", mean(func(r *replayReq) float64 { return float64(r.wWorlds) }), "count", shardHit},
		{"shard.worker_cache_hit_ratio", ratio(wHit, wHit+wMiss), "fraction", shardHit},
		{"shard.rescatters", mean(func(r *replayReq) float64 { return float64(r.fabric.Rescatters) }), "count", shardHit},
		{"shard.hedges", mean(func(r *replayReq) float64 { return float64(r.fabric.Hedges) }), "count", shardHit},
		{"shard.duplicates", mean(func(r *replayReq) float64 { return float64(r.fabric.Duplicates) }), "count", shardHit},
		{"shard.worker_failures", mean(func(r *replayReq) float64 { return float64(r.wFail) }), "count", shardHit},
		{"gio.load_s", loadS, "s", "cold"},
		{"setup.warmup_s", warmS, "s", "cold"},
		{"obs.explain_overhead_pct", pct(explain, plain), "%", shardCold},
		{"bench.trace_overhead_pct", pct(clientOn, clientOff), "%", state},
	}
}

func coreOnly(cluster bool, v float64) float64 {
	if !cluster {
		return 0
	}
	return v
}

func shardOnly(t *tracer, v float64) float64 {
	if !t.sharded() {
		return 0
	}
	return v
}

// pct is the relative excess of a over b, in percent.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}

// selfCheck is the distribution of one self time over the replayed
// requests; the self-test fails a run whose mean self time is negative by
// more than its interquartile range — a sign that two rungs were measured
// in different cache states.
type selfCheck struct {
	name      string
	mean, iqr float64
}

func selfChecks(t *tracer) []selfCheck {
	cluster := t.seq[0].req.Cluster != nil
	type def struct {
		name string
		on   bool
		f    func(*replayReq) float64
	}
	defs := []def{
		{"server.self_ms", true, func(r *replayReq) float64 { return r.handler - r.rung }},
		{"core.self_ms", cluster, func(r *replayReq) float64 { return r.rung - r.oracle }},
		{"conn.self_ms", true, func(r *replayReq) float64 {
			if t.sharded() {
				return r.local - r.ws - r.pair
			}
			return r.oracle - r.ws - r.pair
		}},
		{"shard.overhead_ms", t.sharded(), func(r *replayReq) float64 { return r.nocache - r.local }},
	}
	var out []selfCheck
	for _, d := range defs {
		if !d.on {
			continue
		}
		xs := make([]float64, len(t.reqs))
		s := 0.0
		for i := range t.reqs {
			xs[i] = d.f(&t.reqs[i])
			s += xs[i]
		}
		sort.Float64s(xs)
		out = append(out, selfCheck{d.name, s / float64(len(xs)), percentile(xs, 75) - percentile(xs, 25)})
	}
	return out
}
