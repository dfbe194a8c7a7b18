package main

import (
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric. End-to-end metrics carry the
// bound by which a later change may worsen them before it counts as a
// regression; Gated ones are the subset printed on the last output
// line for --trace 0 (they apply to every workload and are never 0).
// Per-layer metrics instead carry the prediction: the end-to-end
// metric and workload they should move, and where they should not.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Gated  bool
	Moves  string // per-layer: "metric@workload ..." it should move
	Still  string // per-layer: workloads where it should not move
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEnd lists what a user of the platform sees, per workload. The
// per-kind latencies, fail_share and trail_verified apply to some
// workloads only or read 0 in a healthy run, so they are reported
// (and compared) here but not gated by the driver contract. Two
// all-op percentiles are not gated either, because each sits where a
// small shift moves it far: on session the median falls in the gap
// between the exec mode (~13 µs) and the login/remote modes (~40 µs),
// and on interactive the 99th percentile is where the collector's
// stop-the-world pauses begin. Between runs of one binary they spread
// by 26% and 20% (IQR over median). p90 is the gated latency, and
// cpu_us_per_op the gated cost, which hypervisor steal does not move.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_us", Unit: "us", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "login_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "exec_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "pipeline_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "remote_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "event_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "file_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "transfer_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_allowed_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_refused_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "fail_share", Unit: "share", Better: "lower", Bound: 0},
	{Name: "trail_verified", Unit: "bool", Better: "higher", Bound: 0},
	{Name: "alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.05, Gated: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
}

const (
	onSession = "exec_p50_us@session login_p50_us@session"
	onRemote  = "remote_p50_us@session"
	onGuard   = "read_allowed_p50_us@guard read_refused_p50_us@guard"
	onFile    = "file_p50_us@interactive"
	onEvent   = "event_p50_us@interactive"
	onXfer    = "transfer_p50_us@interactive"
	onAudit   = "exec_p50_us@session throughput_ops_s@session read_refused_p50_us@guard"
	onTrail   = "trail_verified@session trail_verified@guard"
	onStreams = "pipeline_p50_us@session login_p50_us@session"
	onRuntime = "latency_p99_us@interactive alloc_bytes_per_op@interactive"
)

// perLayer is the traced run's output and the prediction table later
// performance changes cite: each metric's Moves/Still say which
// end-to-end number it should explain, on which workload, and where a
// change to it must leave the end-to-end numbers alone.
var perLayer = []metricDef{
	{Name: "audit.cpu_share", Unit: "share", Better: "lower", Moves: onAudit, Still: "interactive"},
	{Name: "audit.sort_share", Unit: "share", Better: "lower", Moves: onAudit, Still: "interactive"},
	{Name: "audit.sync_ms", Unit: "ms", Better: "lower", Moves: onAudit, Still: "interactive"},
	{Name: "audit.batch_fill", Unit: "records/batch", Better: "higher", Moves: onAudit, Still: "interactive"},
	{Name: "audit.records_per_op", Unit: "records/op", Better: "lower", Moves: onAudit, Still: "interactive"},
	{Name: "audit.drop_share", Unit: "share", Better: "lower", Moves: onAudit, Still: "interactive"},
	{Name: "audit.pending_max", Unit: "count", Better: "lower", Moves: onAudit, Still: "interactive"},
	{Name: "audit.fault_share", Unit: "share", Better: "lower", Moves: onTrail, Still: "interactive"},
	{Name: "audit.verify_ms", Unit: "ms", Better: "lower", Moves: onTrail, Still: "interactive"},
	{Name: "streams.cpu_share", Unit: "share", Better: "lower", Moves: onStreams, Still: "interactive guard"},
	{Name: "runtime.memclr_share", Unit: "share", Better: "lower", Moves: onStreams, Still: "interactive guard"},
	{Name: "core.launch_us", Unit: "us", Better: "lower", Moves: onSession, Still: "interactive"},
	{Name: "core.run_exit_us", Unit: "us", Better: "lower", Moves: onSession, Still: "interactive"},
	{Name: "core.cpu_share", Unit: "share", Better: "lower", Moves: onSession, Still: "interactive"},
	{Name: "vm.cpu_share", Unit: "share", Better: "lower", Moves: onSession, Still: "interactive"},
	{Name: "classes.cpu_share", Unit: "share", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "shell.cpu_share", Unit: "share", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "coreutils.cpu_share", Unit: "share", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "user.cpu_share", Unit: "share", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "vm.threads_per_op", Unit: "threads/op", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "vm.groups_per_op", Unit: "groups/op", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "classes.template_builds", Unit: "count", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "core.quota_rejected", Unit: "count", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "runtime.stack_growth_share", Unit: "share", Better: "lower", Moves: onSession, Still: "interactive guard"},
	{Name: "playground.submit_us", Unit: "us", Better: "lower", Moves: onRemote, Still: "interactive guard"},
	{Name: "playground.wait_us", Unit: "us", Better: "lower", Moves: onRemote, Still: "interactive guard"},
	{Name: "playground.cpu_share", Unit: "share", Better: "lower", Moves: onRemote, Still: "interactive guard"},
	{Name: "netsim.cpu_share", Unit: "share", Better: "lower", Moves: onRemote, Still: "interactive guard"},
	{Name: "playground.rejected_share", Unit: "share", Better: "lower", Moves: onRemote, Still: "interactive guard"},
	{Name: "playground.failed", Unit: "count", Better: "lower", Moves: onRemote, Still: "interactive guard"},
	{Name: "security.cpu_share", Unit: "share", Better: "lower", Moves: onGuard, Still: "interactive"},
	{Name: "core.read_allowed_us", Unit: "us", Better: "lower", Moves: onGuard, Still: "interactive"},
	{Name: "core.read_refused_us", Unit: "us", Better: "lower", Moves: onGuard, Still: "interactive"},
	{Name: "guard.handoff_us", Unit: "us", Better: "lower", Moves: onGuard, Still: "interactive"},
	{Name: "vfs.write_us", Unit: "us", Better: "lower", Moves: onFile},
	{Name: "vfs.read_us", Unit: "us", Better: "lower", Moves: onFile + " read_allowed_p50_us@guard"},
	{Name: "vfs.remove_us", Unit: "us", Better: "lower", Moves: onFile},
	{Name: "vfs.cpu_share", Unit: "share", Better: "lower", Moves: onFile + " read_allowed_p50_us@guard"},
	{Name: "vfs.inodes_leaked", Unit: "count", Better: "lower", Moves: onFile, Still: "session guard"},
	{Name: "events.post_us", Unit: "us", Better: "lower", Moves: onEvent, Still: "session guard"},
	{Name: "events.deliver_us", Unit: "us", Better: "lower", Moves: onEvent, Still: "session guard"},
	{Name: "events.cpu_share", Unit: "share", Better: "lower", Moves: onEvent, Still: "session guard"},
	{Name: "events.dropped_share", Unit: "share", Better: "lower", Moves: onEvent, Still: "session guard"},
	{Name: "events.rejected", Unit: "count", Better: "lower", Moves: onEvent, Still: "session guard"},
	{Name: "objspace.atomically_us", Unit: "us", Better: "lower", Moves: onXfer, Still: "session guard"},
	{Name: "objspace.cpu_share", Unit: "share", Better: "lower", Moves: onXfer, Still: "session guard"},
	{Name: "objspace.abort_ratio", Unit: "share", Better: "lower", Moves: onXfer, Still: "session guard"},
	{Name: "objspace.escalations", Unit: "count", Better: "lower", Moves: onXfer, Still: "session guard"},
	{Name: "runtime.gc_share", Unit: "share", Better: "lower", Moves: onRuntime},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: onRuntime},
	{Name: "runtime.unattributed_share", Unit: "share", Better: "lower", Moves: onRuntime},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: onRuntime},
}

func findDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// value is one reported metric; N is the sample count behind it (0
// when it is a ratio or count rather than a distribution).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile[T int64 | uint64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), so spreads read the same as the driver's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(math.Floor(m))
		delta := m - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
