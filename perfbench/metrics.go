package main

import (
	"fmt"
	"strings"
)

// latency summarises samples (milliseconds) as a median metric named p50
// and, when p99 is not empty, a tail metric named p99, noting the sample
// count and the percentile used.
func latency(p50, p99 string, samples []float64) []metric {
	sorted := sortedCopy(samples)
	out := []metric{{Name: p50, Value: nearestRank(sorted, 0.5), Unit: "ms", Note: fmt.Sprintf("n=%d", len(sorted))}}
	if p99 != "" {
		t := tailPercentile(sorted, 0.99)
		out = append(out, metric{Name: p99, Value: t.Value, Unit: "ms", Note: fmt.Sprintf("p%.2f of n=%d", t.Percentile, t.Samples)})
	}
	return out
}

func textOnly(ms []metric) []metric {
	for i := range ms {
		ms[i].TextOnly = true
	}
	return ms
}

// endToEnd is what a user of the store sees, measured with tracing off.
// The metrics every workload has are gated by BENCHMARK.json; the range,
// write and delete latencies only some workloads have, and the error
// rate (0 on a correct run, and carried by the JSON's failed count), are
// text-only.
func endToEnd(m *measurement) []metric {
	out := latency("read_p50_ms", "read_p99_ms", m.res.lat[opRead])
	ops := float64(m.ops())
	out = append(out,
		metric{Name: "ops_per_s", Value: m.opsPerSec(), Unit: "ops/s", Note: fmt.Sprintf("interquartile mean of %d s; whole window %d ops in %.3f s, %d clients",
			len(m.subs), m.ops(), m.elapsed.Seconds(), clients)},
		metric{Name: "cpu_ms_per_op", Value: m.cpuMsPerOp(), Unit: "ms", Note: fmt.Sprintf("interquartile mean of %d s; whole window %.4g", len(m.subs), ratio(ms(m.cpu), ops))},
		metric{Name: "storage_overhead", Value: ratio(float64(m.stored), float64(m.liveUser)), Unit: "ratio",
			Note: fmt.Sprintf("%d stored / %d live user bytes", m.stored, m.liveUser)},
		metric{Name: "setup_s", Value: m.setupS(), Unit: "s", Note: fmt.Sprintf("median boot+preload of %d + %.3f s warm-up", len(m.boot), m.warmS)},
		metric{Name: "peak_rss_mb", Value: float64(m.peakRSS) / mib, Unit: "MiB"},
	)
	for _, k := range []struct {
		kind   opKind
		prefix string
	}{{opRange, "range"}, {opPut, "put"}, {opStream, "stream_put"}, {opDelete, "delete"}} {
		if len(m.res.lat[k.kind]) > 0 {
			out = append(out, textOnly(latency(k.prefix+"_p50_ms", k.prefix+"_p99_ms", m.res.lat[k.kind]))...)
		}
	}
	a := m.accounting()
	return append(out, metric{Name: "error_rate", Value: a.errorRate(), Unit: "ratio",
		Note: fmt.Sprintf("%d bad of %d", a.bad(), a.Attempted), TextOnly: true})
}

// layerSet collects per-layer metrics in report order.
type layerSet []metric

func (l *layerSet) add(name string, v float64, unit string) {
	*l = append(*l, metric{Name: name, Value: v, Unit: unit})
}

func (l *layerSet) addNote(name string, v float64, unit, note string) {
	*l = append(*l, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// latency adds span-duration percentiles. Latencies of calls only some
// workloads make are text-only: a time that reads 0 on every run of the
// other workloads is not a measurement.
func (l *layerSet) latency(p50, p99 string, samples []float64, onlySome bool) {
	ms := latency(p50, p99, samples)
	if onlySome {
		ms = textOnly(ms)
	}
	*l = append(*l, ms...)
}

// serverMethods are the storage RPCs the workloads issue during a window.
var serverMethods = []string{"PutChunk", "GetChunk", "GetChunkRange", "PutChunkStream", "DeleteChunk"}

// perLayer derives the per-layer metrics from the traced run m (spans,
// registry counters, planner and cache statistics, CPU profile) and from
// the untraced run plain (allocation and GC figures, which tracing
// itself would inflate).
func perLayer(m, plain *measurement) ([]metric, error) {
	ops := float64(m.ops())
	counter := func(name string) float64 {
		return float64(m.regAfter.SumCounters(name) - m.regBefore.SumCounters(name))
	}
	shares, samples, err := cpuShares(m.profile)
	if err != nil {
		return nil, err
	}

	byID := make(map[uint64]*span, len(m.spans))
	durs := map[string][]float64{}
	children := map[uint64][]interval{}
	for i := range m.spans {
		s := &m.spans[i]
		byID[s.ID] = s
		durs[s.Name] = append(durs[s.Name], ms(s.End.Sub(s.Start)))
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var self, serverMeta, overhead []float64
	for i := range m.spans {
		s := &m.spans[i]
		switch {
		case s.Parent == 0 && s.Op != 0:
			self = append(self, ms(selfTime(s.Start, s.End, children[s.ID])))
		case strings.HasPrefix(s.Name, "server.meta."):
			serverMeta = append(serverMeta, ms(s.End.Sub(s.Start)))
		case strings.HasPrefix(s.Name, "server.site.") && s.Parent != 0:
			// Injected latency sits on the client side of a slowed
			// site's calls, so only unslowed sites show RPC cost.
			if p, ok := byID[s.Parent]; ok {
				if _, slowed := m.slow[p.Site]; !slowed {
					overhead = append(overhead, ms(p.End.Sub(p.Start)-s.End.Sub(s.Start)))
				}
			}
		}
	}
	var l layerSet
	// core
	l.latency("core.self_ms_p50", "", self, false)
	l.add("core.chunks_per_block", ratio(counter("client_chunks_fetched_total"), counter("client_blocks_total")), "ratio")
	l.add("core.late_binding_waste", ratio(counter("client_late_binding_discarded_total"), counter("client_chunks_fetched_total")), "ratio")
	l.add("core.retries", counter("client_retries_total"), "count")
	l.add("core.replans", counter("client_replans_total"), "count")
	l.add("core.fetch_errors", counter("client_fetch_errors_total"), "count")
	l.add("core.cpu_share", shares["core"], "ratio")

	// placement and the ILP worker
	hits := float64(m.planAfter.Hits - m.planBefore.Hits)
	misses := float64(m.planAfter.Misses - m.planBefore.Misses)
	l.add("placement.plan_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.latency("placement.plan_ms_p50", "", m.res.planMs, false)
	l.add("placement.greedy_per_op", ratio(float64(m.planAfter.Greedy-m.planBefore.Greedy), ops), "1/op")
	l.add("placement.exact_solves_per_op", ratio(float64(m.planAfter.Exact-m.planBefore.Exact), ops), "1/op")
	l.add("placement.exact_pending_end", float64(m.exactPending), "count")
	l.add("placement.cpu_share", shares["placement"], "ratio")
	l.add("ilp.cpu_share", shares["ilp"], "ratio")

	// metadata
	l.latency("metadata.lookup_ms_p50", "metadata.lookup_ms_p99", durs["meta.Lookup"], false)
	l.latency("metadata.register_ms_p50", "metadata.register_ms_p99", durs["meta.Register"], true)
	l.latency("metadata.delete_ms_p50", "", durs["meta.Delete"], true)
	l.latency("metadata.server_ms_p50", "", serverMeta, false)
	mutations := counter("meta_registers_total") + counter("meta_deletes_total") + counter("meta_placement_updates_total")
	l.add("metadata.wal_fsyncs_per_mutation", ratio(counter("meta_wal_fsyncs_total"), mutations), "ratio")
	l.add("metadata.wal_bytes_per_mutation", ratio(counter("meta_wal_append_bytes_total"), mutations), "B")
	l.add("metadata.wal_compactions", counter("meta_wal_compactions_total"), "count")
	l.add("metadata.recover_s", m.recover.Seconds(), "s")
	l.add("metadata.cpu_share", shares["metadata"], "ratio")

	// storage: every workload reads whole chunks; the other calls are
	// workload-specific.
	l.latency("storage.get_chunk_ms_p50", "storage.get_chunk_ms_p99", durs["site.GetChunk"], false)
	l.latency("storage.get_range_ms_p50", "", durs["site.GetChunkRange"], true)
	l.latency("storage.put_chunk_ms_p50", "", durs["site.PutChunk"], true)
	l.latency("storage.put_stream_ms_p50", "", durs["site.PutChunkStream"], true)
	for _, method := range serverMethods {
		l.latency("storage.server_ms_p50."+method, "", durs["server.site."+method], method != "GetChunk")
	}
	var slowReads float64
	for id := range m.slow {
		label := fmt.Sprint(int(id))
		slowReads += float64(m.regAfter.CounterValue("storage_reads_total", label) - m.regBefore.CounterValue("storage_reads_total", label))
	}
	l.add("storage.slow_site_read_share", ratio(slowReads, counter("storage_reads_total")), "ratio")
	l.add("storage.read_amplification", ratio(counter("storage_read_bytes_total"), float64(m.res.userRead)), "ratio")
	l.add("storage.write_amplification", ratio(counter("storage_write_bytes_total"), float64(m.res.userWritten)), "ratio")
	l.add("storage.cpu_share", shares["storage"], "ratio")

	// rpc / wire / transport
	l.latency("rpc.overhead_ms_p50", "", overhead, false)
	l.add("rpc.calls_per_op", ratio(counter("rpc_server_requests_total"), ops), "1/op")
	l.add("transport.bytes_per_user_byte", ratio(float64(m.wireBytes), float64(m.res.userRead+m.res.userWritten)), "ratio")
	l.add("rpc.cpu_share", shares["rpc"], "ratio")

	// erasure / gf256 / matrix
	l.add("erasure.encode_bytes_per_op", ratio(counter("codec_encode_bytes_total"), ops), "B/op")
	l.add("erasure.decode_bytes_per_op", ratio(counter("codec_decode_bytes_total"), ops), "B/op")
	l.add("erasure.pool_misses_per_op", ratio(counter("buffer_pool_miss_total"), ops), "1/op")
	l.add("erasure.cpu_share", shares["erasure"], "ratio")

	// cache
	ch := float64(m.cacheAfter.Hits - m.cacheBefore.Hits)
	cm := float64(m.cacheAfter.Misses - m.cacheBefore.Misses)
	l.add("cache.hit_ratio", ratio(ch, ch+cm), "ratio")
	l.add("cache.range_hit_ratio", ratio(counter("range_cache_hits_total"), counter("range_requests_total")), "ratio")
	l.add("cache.evictions_per_op", ratio(float64(m.cacheAfter.Evictions-m.cacheBefore.Evictions), ops), "1/op")
	l.add("cache.admission_rejects_per_op", ratio(float64(m.cacheAfter.AdmissionRejects-m.cacheBefore.AdmissionRejects), ops), "1/op")
	l.add("cache.singleflight_dedups", counter("cache_singleflight_dedup_total"), "count")
	l.add("cache.cpu_share", shares["cache"], "ratio")

	// stats and health
	l.add("stats.cpu_share", shares["stats"], "ratio")
	l.add("health.transitions", counter("health_transitions_total"), "count")
	l.add("health.cpu_share", shares["health"], "ratio")

	// Go runtime (allocation and GC from the untraced run) and harness
	pops := float64(plain.ops())
	l.add("go.alloc_bytes_per_op", ratio(float64(plain.allocBytes), pops), "B/op")
	l.add("go.allocs_per_op", ratio(float64(plain.mallocs), pops), "1/op")
	l.add("go.gc_cpu_share", ratio(plain.gcCPU, plain.usedCPU), "ratio")
	l.add("runtime.cpu_share", shares["runtime"], "ratio")
	l.addNote("bench.cpu_share", shares["bench"], "ratio", fmt.Sprintf("of %d profile samples", samples))

	acc := plain.accounting()
	acc.add(m.accounting())
	l.add("bench.error_rate", acc.errorRate(), "ratio")
	l.add("bench.untraced_ops_per_s", plain.opsPerSec(), "ops/s")
	l.add("bench.traced_ops_per_s", m.opsPerSec(), "ops/s")
	l.add("bench.trace_overhead", 1-ratio(m.opsPerSec(), plain.opsPerSec()), "ratio")
	return l, nil
}
