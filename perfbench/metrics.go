package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end table and the
// per-layer table below are the benchmark's contract: BENCHMARK.json
// lists exactly these names and units (TestMetricNamesMatchBenchmarkJSON
// pins the two together), and a run prints every metric of its table.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric a per-layer metric should move
	// and the workloads it shows on; empty for end-to-end metrics.
	moves string
}

var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "ops/s", better: "higher"},
	{name: "slowdown_x", unit: "x", better: "lower"},
	{name: "op_latency_p50_us", unit: "us", better: "lower"},
	{name: "op_latency_p99_us", unit: "us", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

var perLayer = []metricDef{
	{"pacergo.instrument_s", "s", "lower", "setup_s on scan, kvserve"},
	{"rt.hook_calls_per_op", "calls/op", "lower", "ops_per_s on scan, kvserve"},
	{"rt.access_ns.p50", "ns", "lower", "ops_per_s, slowdown_x on scan, then kvserve"},
	{"rt.access_ns.p99", "ns", "lower", "ops_per_s, slowdown_x on scan, then kvserve"},
	{"rt.identity_self_ns", "ns", "lower", "ops_per_s, slowdown_x on scan, then kvserve"},
	{"rt.sync_ns.p50", "ns", "lower", "op_latency_p99_us, ops_per_s on kvserve"},
	{"rt.sync_ns.p99", "ns", "lower", "op_latency_p99_us, ops_per_s on kvserve"},
	{"rt.spawn_ns.p50", "ns", "lower", "op_latency_p99_us, ops_per_s on kvserve"},
	{"rt.spawn_ns.p99", "ns", "lower", "op_latency_p99_us, ops_per_s on kvserve"},
	{"rt.threads", "count", "lower", "peak_rss_mb, op_latency_p99_us on kvserve"},
	{"rt.peak_live_goroutines", "count", "lower", "peak_rss_mb, op_latency_p99_us on kvserve"},
	{"shadow.get_ns.p50", "ns", "lower", "ops_per_s on scan"},
	{"shadow.get_ns.p99", "ns", "lower", "ops_per_s on scan"},
	{"shadow.hit_ratio", "ratio", "higher", "ops_per_s on scan"},
	{"shadow.vars", "count", "lower", "peak_rss_mb on scan"},
	{"frontend.access_ns.p50", "ns", "lower", "ops_per_s on replay, then scan"},
	{"frontend.access_ns.p99", "ns", "lower", "ops_per_s on replay, then scan"},
	{"frontend.sync_ns.p50", "ns", "lower", "ops_per_s on replay, then scan"},
	{"frontend.sync_ns.p99", "ns", "lower", "ops_per_s on replay, then scan"},
	{"frontend.self_ns", "ns", "lower", "ops_per_s on replay, then scan"},
	{"frontend.fastpath_ratio", "ratio", "higher", "ops_per_s on replay, scan"},
	{"frontend.sampled_ratio", "ratio", "higher", "detection probability on replay, scan (compare with r)"},
	{"backend.access_ns.p50", "ns", "lower", "ops_per_s, op_latency_p99_us on kvserve, replay"},
	{"backend.access_ns.p99", "ns", "lower", "ops_per_s, op_latency_p99_us on kvserve, replay"},
	{"backend.sync_ns.p50", "ns", "lower", "ops_per_s, op_latency_p99_us on kvserve, replay"},
	{"backend.sync_ns.p99", "ns", "lower", "ops_per_s, op_latency_p99_us on kvserve, replay"},
	{"vclock.slow_joins_per_sync", "joins/op", "lower", "ops_per_s on kvserve"},
	{"vclock.fast_join_ratio", "ratio", "higher", "ops_per_s on replay"},
	{"vclock.deep_copies_per_sync", "copies/op", "lower", "ops_per_s on kvserve, replay"},
	{"meta.words", "words", "lower", "peak_rss_mb on kvserve, replay"},
	{"meta.vars_tracked", "count", "lower", "peak_rss_mb on kvserve, replay"},
	{"trace.overhead_x", "x", "lower", "tracing cost: timed rt pass over untimed"},
	{"ref.ops_per_s.r0", "ops/s", "higher", "reference: ops_per_s at r=0"},
	{"ref.ops_per_s.r0.01", "ops/s", "higher", "reference: ops_per_s at r=0.01"},
	{"ref.ops_per_s.r1", "ops/s", "higher", "reference: ops_per_s at r=1"},
	{"ref.race_slowdown_x", "x", "lower", "reference: go build -race slowdown"},
}

// tailMaxQ is the highest percentile the benchmark reports.
const tailMaxQ = 0.99

// tailIndex returns the index, in an ascending sample of n, of the
// highest percentile at or below tailMaxQ that leaves at least ten
// samples beyond it. It never goes below the median: too few samples
// report the median as the tail.
func tailIndex(n int) int {
	if n == 0 {
		return -1
	}
	i := int(math.Ceil(tailMaxQ*float64(n))) - 1
	if i > n-11 {
		i = n - 11
	}
	if m := medianIndex(n); i < m {
		i = m
	}
	return i
}

func medianIndex(n int) int { return (n - 1) / 2 }

// dist summarizes one sample: its median, its tail (see tailIndex), the
// percentile the tail stands for, its mean, and the count.
type dist struct {
	P50, Tail, TailQ, Mean float64
	N                      int
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	ti := tailIndex(len(s))
	return dist{
		P50:   s[medianIndex(len(s))],
		Tail:  s[ti],
		TailQ: float64(ti+1) / float64(len(s)),
		Mean:  sum / float64(len(s)),
		N:     len(s),
	}
}

// median returns the median of xs (the lower middle for even counts,
// matching summarize).
func median(xs []float64) float64 { return summarize(xs).P50 }

// positionMedians takes several runs of the same sequence of work, one
// latency sample per position, and returns each position's median over
// the runs. The work at a position is the same in every run, so its
// median keeps what that work costs and drops what the host added to a
// single run (a preemption, a neighbour's burst of load); latency
// percentiles are then taken over positions. Runs longer than the
// shortest are cut to it.
func positionMedians(runs [][]float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	for _, r := range runs {
		n = min(n, len(r))
	}
	out := make([]float64, n)
	col := make([]float64, len(runs))
	for i := range out {
		for j, r := range runs {
			col[j] = r[i]
		}
		out[i] = median(col)
	}
	return out
}

// selfTime is a layer's own time per op: the mean span of its pass minus
// the mean spans of the passes beneath it for the same op kind. Means,
// not percentiles, because only means subtract. A negative difference is
// measurement noise and reads as zero.
func selfTime(outer dist, inner ...dist) float64 {
	d := outer.Mean
	for _, in := range inner {
		d -= in.Mean
	}
	return math.Max(d, 0)
}

// pairedSlowdown is the median over paired measurements of baseline
// throughput over instrumented throughput. Each pair runs back to back,
// so a machine that speeds up or slows down during a run moves both
// sides of a ratio alike.
func pairedSlowdown(base, instr []float64) float64 {
	var xs []float64
	for i := range instr {
		xs = append(xs, ratio(base[i], instr[i]))
	}
	return median(xs)
}

// errorRate is failed ops over attempted ops.
func errorRate(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
