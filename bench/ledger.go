package main

import (
	"runtime"
	"time"
)

// ledgerMetrics fills the per-layer metrics that come from what the
// public API returns for each untraced join (Result, registry and device
// deltas) and from the process around it. Values are medians over the
// joins; the counts the issue calls exact repeat on every join, so their
// median is the count itself. The three ratios hold a phase's per-worker
// rate against the matching kernel probe, which must already be in set.
func ledgerMetrics(set *metricSet, in *inputs, t *tally) {
	med := func(f func(*joinSample) float64) float64 { return median(t.column(f)) }
	avg := func(f func(*joinSample) float64) float64 { return mean(t.column(f)) }

	hist := med(func(s *joinSample) float64 { return ms(s.res.Phases.Histogram) })
	net := med(func(s *joinSample) float64 { return ms(s.res.Phases.NetworkPartition) })
	local := med(func(s *joinSample) float64 { return ms(s.res.Phases.LocalPartition) })
	bp := med(func(s *joinSample) float64 { return ms(s.res.Phases.BuildProbe) })
	set.set("core.histogram_ms", hist)
	set.set("core.network_partition_ms", net)
	set.set("core.local_partition_ms", local)
	set.set("core.build_probe_ms", bp)
	set.set("core.phase_coverage", med(func(s *joinSample) float64 {
		var slowest time.Duration
		for _, p := range s.res.PerMachine {
			slowest = max(slowest, p.Total())
		}
		return ratio(float64(slowest), float64(s.wall))
	}))
	set.set("core.overlap_ms", med(func(s *joinSample) float64 {
		var longest time.Duration
		for _, d := range s.res.PipelineOverlap {
			longest = max(longest, d)
		}
		return ms(longest)
	}))

	set.set("core.bytes_shipped_mb", med(func(s *joinSample) float64 { return float64(s.res.Net.BytesSent) / mib }))
	set.set("core.messages", med(func(s *joinSample) float64 { return float64(s.res.Net.Messages) }))
	set.set("core.pool_stalls", med(func(s *joinSample) float64 { return float64(s.res.Net.PoolStalls) }))
	set.set("core.registrations", med(func(s *joinSample) float64 { return float64(s.res.Net.Registrations) }))
	set.set("core.pages_registered", med(func(s *joinSample) float64 { return float64(s.res.Net.PagesRegistered) }))
	set.set("core.task_splits", med(func(s *joinSample) float64 { return float64(s.res.Skew.TaskSplits) }))
	set.set("core.replicated_mb", med(func(s *joinSample) float64 { return float64(s.res.Skew.ReplicatedBytes) / mib }))
	set.set("core.heavy_hitters", med(func(s *joinSample) float64 { return float64(len(s.res.Skew.HeavyHitters)) }))

	set.set("core.buffer_wait_ms", med(func(s *joinSample) float64 { return (s.after.bufferWaitS - s.before.bufferWaitS) * 1e3 }))
	set.set("core.cq_wait_ms", med(func(s *joinSample) float64 { return (s.after.cqWaitS - s.before.cqWaitS) * 1e3 }))
	set.set("core.scheduler_steals", med(func(s *joinSample) float64 { return s.after.steals - s.before.steals }))
	set.set("core.rnr_waits", med(func(s *joinSample) float64 { return float64(s.after.rnrWaits) - float64(s.before.rnrWaits) }))
	set.set("core.pages_pinned_growth", med(func(s *joinSample) float64 {
		return float64(s.after.pagesPinned) - float64(s.before.pagesPinned)
	}))

	inputMB := float64(in.inner.Size()+in.outer.Size()) / mib
	workers := float64(in.w.machines * in.w.cores)
	netRate := ratio(inputMB, net/1e3*float64(in.w.partitionThreads(in.cfg)))
	set.set("core.netpass_mb_per_s_per_worker", netRate)
	set.set("core.netpass_vs_scatter", ratio(netRate, set.get("radix.scatter_mb_per_s")))
	set.set("core.localpass_vs_partition",
		ratio(ratio(inputMB, local/1e3*workers), set.get("radix.partition_mb_per_s")))
	set.set("core.buildprobe_vs_probe",
		ratio(ratio(float64(in.outer.Len())/1e6, bp/1e3*workers), set.get("hashtable.probe_mtuples_per_s")))

	set.set("process.sys_cpu_ms", avg(func(s *joinSample) float64 { return ms(s.sys) }))
	set.set("process.page_faults", avg(func(s *joinSample) float64 { return float64(s.minorFaults) }))
	set.set("process.gc_cycles", avg(func(s *joinSample) float64 { return float64(s.gcCycles) }))
	set.set("process.gc_pause_ms", avg(func(s *joinSample) float64 { return ms(s.gcPause) }))
}

// settledGoroutines returns the goroutine count once it has stopped
// falling: goroutines that a Close has told to stop need a moment to
// return, and only the ones still there after it are leaked.
func settledGoroutines(atMost int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > atMost && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
