package main

import "sort"

// iterTrace is what one traced study iteration measured.
type iterTrace struct {
	c          *layerCounts
	self       map[string]int64 // span self time in ns, by span name
	tracedNs   int64            // traced replay, layer replays excluded
	untracedNs int64            // the same study through sweep.Sweep.Run at one worker
}

func (it *iterTrace) ms(span string) float64 { return float64(it.self[span]) / 1e6 }

// layerMetric is one per-layer metric of the traced run, with the
// prediction a later change is judged against: which end-to-end metric it
// should move, and on which workload it shows or must not.
type layerMetric struct {
	name, unit, better string
	// timed metrics are host time, reported as the median over the run's
	// traced iterations; the others are counts read from the layers'
	// public accessors, which must repeat exactly across iterations.
	timed bool
	// source is "span" (host time around the public call), "count"
	// (public accessors) or "replay" (the layer's public functions driven
	// with the workload's own access stream).
	source, moves, shows string
	value                func(it *iterTrace) float64
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var layerMetrics = []layerMetric{
	{"ocb.gen_ms", "ms", "lower", true, "span ocb.GenerateInto", "wall_s, setup_s",
		"fig6-o2, dstc-table6 / not contended-write",
		func(it *iterTrace) float64 { return it.ms("ocb.generate") }},
	{"ocb.gen_ns_per_object", "ns", "lower", true, "span ocb.GenerateInto / objects", "wall_s, setup_s",
		"fig6-o2, dstc-table6 / not contended-write",
		func(it *iterTrace) float64 { return ratio(float64(it.self["ocb.generate"]), float64(it.c.objects)) }},
	{"ocb.workload_ms", "ms", "lower", true, "span Workload.GenerateInto / GenerateHierarchyInto", "wall_s",
		"fig6-o2 / not contended-write",
		func(it *iterTrace) float64 { return it.ms("ocb.workload") }},
	{"ocb.accesses", "count", "higher", false, "count: ops in the measured batches", "none: fixes the work unit",
		"all",
		func(it *iterTrace) float64 { return float64(it.c.accesses) }},
	{"core.model_ms", "ms", "lower", true, "span core.NewRun + Run.Reset", "setup_s, wall_s",
		"fig11-texas / not fig6-o2",
		func(it *iterTrace) float64 { return it.ms("core.model") }},
	{"core.batch_ms", "ms", "lower", true, "span Run.ExecuteBatch", "wall_s, txn_per_s",
		"all, most on fig11-texas and contended-write",
		func(it *iterTrace) float64 { return it.ms("core.batch") }},
	{"core.ns_per_access", "ns", "lower", true, "span Run.ExecuteBatch / (hits+misses)", "wall_s, txn_per_s",
		"all, most on fig11-texas and contended-write",
		func(it *iterTrace) float64 { return ratio(float64(it.self["core.batch"]), float64(it.c.bufAccesses)) }},
	{"core.rep_ms_p50", "ms", "lower", true, "span per replication, layer replays excluded", "wall_s",
		"all",
		func(it *iterTrace) float64 { return percentileNs(it.c.repNs, 0.5) / 1e6 }},
	{"core.rep_ms_p90", "ms", "lower", true, "span per replication, layer replays excluded",
		"wall_s at several workers (stragglers)", "fig6-o2 (thrashing 20k replications)",
		func(it *iterTrace) float64 { return percentileNs(it.c.repNs, 0.9) / 1e6 }},
	{"core.commit_ratio", "frac", "higher", false, "count BatchStats.Transactions / (Transactions+Aborts)", "txn_per_s",
		"contended-write / 1.0 elsewhere",
		func(it *iterTrace) float64 { return ratio(float64(it.c.commits), float64(it.c.commits+it.c.aborts)) }},
	{"core.aborts", "count", "lower", false, "count BatchStats.Aborts", "txn_per_s",
		"contended-write / 0 elsewhere",
		func(it *iterTrace) float64 { return float64(it.c.aborts) }},
	{"core.sim_resp_ms_p95", "sim_ms", "lower", false, "count BatchStats.P95RespMs (simulated), mean over batches",
		"none: must not move under a performance-only change", "all",
		func(it *iterTrace) float64 { return it.c.p95Resp.Mean() }},
	{"sim.bypass_rate", "frac", "higher", false, "count BatchStats.BypassRate, mean over batches", "core.ns_per_access",
		"contended-write / the figures stay at 1.0",
		func(it *iterTrace) float64 { return it.c.bypass.Mean() }},
	{"sim.calendar_peak", "count", "lower", false, "count Run.CalendarPeak, max", "core.ns_per_access",
		"contended-write / the figures stay at 1",
		func(it *iterTrace) float64 { return float64(it.c.calPeak) }},
	{"lock.waits_per_txn", "1/txn", "lower", false, "count BatchStats.LockWaits / Transactions", "txn_per_s",
		"contended-write / 0 elsewhere",
		func(it *iterTrace) float64 { return ratio(float64(it.c.lockWaits), float64(it.c.commits)) }},
	{"lock.replay_ns_per_acquire", "ns", "lower", true,
		"replay lock.Manager Begin/Acquire/ReleaseAll/End over the batch's ops", "wall_s",
		"contended-write",
		func(it *iterTrace) float64 { return ratio(float64(it.c.lockReplayNs), float64(it.c.lockAcquires)) }},
	{"buffer.hit_ratio", "frac", "higher", false, "count Run.Buffer() hits / (hits+misses)",
		"none: simulated", "fig11-texas vs fig6-o2",
		func(it *iterTrace) float64 { return ratio(float64(it.c.hits), float64(it.c.bufAccesses)) }},
	{"buffer.evictions", "count", "lower", false, "count Run.Buffer().Evictions()",
		"none: simulated", "fig11-texas vs fig6-o2",
		func(it *iterTrace) float64 { return float64(it.c.evictions) }},
	{"buffer.writebacks", "count", "lower", false, "count Run.Buffer().Writebacks()",
		"none: simulated", "fig11-texas vs fig6-o2",
		func(it *iterTrace) float64 { return float64(it.c.writebacks) }},
	{"buffer.replay_ns_per_access", "ns", "lower", true,
		"replay buffer.Manager.Access over Store.Pages of the batch's ops, cell capacity and policy", "wall_s",
		"fig11-texas (eviction path) vs fig6-o2 (hit path)",
		func(it *iterTrace) float64 { return ratio(float64(it.c.bufReplayNs), float64(it.c.bufReplayed)) }},
	{"disk.ios", "count", "lower", false, "count Run.Disk() reads+writes (simulated)",
		"none: must not move under a performance-only change", "all",
		func(it *iterTrace) float64 { return float64(it.c.diskIOs) }},
	{"cluster.reorg_ios", "count", "lower", false, "count LastReorgReport().IOs()", "wall_s",
		"dstc-table6 only",
		func(it *iterTrace) float64 { return float64(it.c.reorgIOs) }},
	{"cluster.clusters", "count", "higher", false, "count LastReorgReport().Summary.Clusters, mean per reorganization",
		"none: simulated", "dstc-table6 only",
		func(it *iterTrace) float64 { return ratio(float64(it.c.clusters), float64(it.c.reorgs)) }},
	{"trace.overhead_frac", "frac", "lower", true, "traced replay vs untraced sweep host time, one worker each",
		"n/a", "all",
		func(it *iterTrace) float64 { return float64(it.tracedNs)/float64(it.untracedNs) - 1 }},
}

// percentileNs returns the nearest-rank p-quantile of xs.
func percentileNs(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(p*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return float64(s[k])
}

// trimmedMean returns the mean of xs without its lowest and highest
// fraction f.
func trimmedMean(xs []float64, f float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(f * float64(len(s)))
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
