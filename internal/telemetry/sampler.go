// Package telemetry is the live observation plane over the SYMBIOSYS
// measurement pipeline. Where the profiling and tracing layers
// (internal/core) accumulate state for end-of-run analysis, telemetry
// reads that state when it is asked for and exposes it over HTTP —
// Prometheus text exposition on /metrics and a JSON snapshot on
// /snapshot — so an operator can watch a run while it executes instead
// of waiting for the post-mortem profile dump. Like a PVAR session (the
// paper's Figure 3), it reads the variables when a tool wants them:
// nothing runs between scrapes, so leaving it on costs nothing until
// someone looks.
//
// The package sits below margo in the import order: it defines the
// Source interface that margo.Instance implements, so it never imports
// the layers it observes.
package telemetry

import (
	"sort"

	"symbiosys/internal/core"
)

// Kind classifies a row for exposition: gauges go up and down (queue
// depths, pool occupancy), counters only accumulate (events read, trace
// drops) and are meaningful as deltas and rates between two scrapes.
type Kind int

// Row kinds.
const (
	Gauge Kind = iota
	Counter
)

// String names the kind using Prometheus type vocabulary.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// PVarValue is one performance variable read through the instance's
// PVAR session at scrape time (the paper's Figure 3 handshake).
type PVarValue struct {
	Name string `json:"name"`
	// Counter marks monotone variables; the rest are exported as gauges.
	Counter bool   `json:"counter,omitempty"`
	Value   uint64 `json:"value"`
}

// PoolStat is one Argobots pool's occupancy at scrape time.
type PoolStat struct {
	Name     string `json:"name"`
	Runnable int64  `json:"runnable"`
	Blocked  int64  `json:"blocked"`
	Created  uint64 `json:"created"`
	Executed uint64 `json:"executed"`
}

// Sample is one read of an instance: PVARs, pool occupancy, na-layer
// completion-queue state, measurement-store health, and runtime stats.
// Cumulative counters stay cumulative here; a reader derives deltas and
// rates from two successive reads.
type Sample struct {
	UnixNanos int64 `json:"unix_nanos"`

	PVars []PVarValue `json:"pvars,omitempty"`
	Pools []PoolStat  `json:"pools,omitempty"`

	// na completion-queue state (the t11→t12 backlog of the paper).
	CQDepth      int    `json:"cq_depth"`
	EventsRead   uint64 `json:"events_read"`
	EventsPosted uint64 `json:"events_posted"`
	CQOverflows  uint64 `json:"cq_overflows"`

	// Measurement-store health: the Profiler's trace buffers and sinks.
	TraceLen     int    `json:"trace_len"`
	TraceDropped uint64 `json:"trace_dropped"`
	SinkErrors   uint64 `json:"sink_errors"`
	OriginCalls  uint64 `json:"origin_calls"`
	TargetCalls  uint64 `json:"target_calls"`

	// Cumulative handler/total nanos on the target side; the deltas of
	// two reads give the handler fraction of the window between them.
	TargetHandlerNanos uint64 `json:"target_handler_nanos"`
	TargetTotalNanos   uint64 `json:"target_total_nanos"`

	// Client-side resilience counters (margo retry policy) and the
	// fabric's injected-fault totals, so a failing link and the retries
	// absorbing it are visible live in /metrics and symmon.
	RPCRetries    uint64 `json:"rpc_retries"`
	RPCTimeouts   uint64 `json:"rpc_timeouts"`
	RPCExhausted  uint64 `json:"rpc_exhausted"`
	FaultDrops    uint64 `json:"fault_drops"`
	FaultDups     uint64 `json:"fault_dups"`
	FaultDelays   uint64 `json:"fault_delays"`
	FaultRefusals uint64 `json:"fault_refusals"`

	// Overload-control plane: server-side shed/expired totals, the
	// client-side circuit breaker counters, and the admission state
	// (in-flight handlers, draining flag).
	OverloadShed     uint64 `json:"overload_shed"`
	OverloadExpired  uint64 `json:"overload_expired"`
	BreakerTrips     uint64 `json:"breaker_trips"`
	BreakerFastFails uint64 `json:"breaker_fastfails"`
	BreakerOpen      int    `json:"breaker_open"`
	AdmissionDepth   int64  `json:"admission_depth"`
	Draining         bool   `json:"draining"`

	// Client-side coalescer (batched forwards): cumulative flush, op,
	// byte, and retry counters, per-flush-reason counts, and window
	// occupancy, so the paper's C4 batching effect is observable live
	// (coalesce ratio = ops per vectored forward).
	BatchFlushes       uint64            `json:"batch_flushes,omitempty"`
	BatchOps           uint64            `json:"batch_ops,omitempty"`
	BatchBytes         uint64            `json:"batch_bytes,omitempty"`
	BatchRetries       uint64            `json:"batch_retries,omitempty"`
	BatchCoalesceRatio float64           `json:"batch_coalesce_ratio,omitempty"`
	BatchOccupancy     uint64            `json:"batch_occupancy,omitempty"`
	BatchOccupancyHWM  uint64            `json:"batch_occupancy_hwm,omitempty"`
	BatchFlushReasons  map[string]uint64 `json:"batch_flush_reasons,omitempty"`

	// Scheduler-core activity (work-stealing ULT runtime) and the
	// adaptive progress engine's spin/park transitions: together they
	// show whether ES capacity matches load (paper C1/C2) and whether
	// the progress loop is running hot or parked (C5/C6).
	SchedQuanta       uint64 `json:"sched_quanta"`
	SchedSteals       uint64 `json:"sched_steals"`
	SchedParks        uint64 `json:"sched_parks"`
	SchedWakes        uint64 `json:"sched_wakes"`
	ProgressSpinPolls uint64 `json:"progress_spin_polls"`
	ProgressParks     uint64 `json:"progress_parks"`

	// Instance tuning knobs, exported so a reconfigured run shows its
	// settings beside the counters they explain.
	OFIMaxEvents   int   `json:"ofi_max_events"`
	HandlerStreams int   `json:"handler_streams"`
	RPCsInFlight   int64 `json:"rpcs_in_flight"`

	// Runtime stats (from core.SysSampler) plus its refresh counter, so
	// the cost of system sampling is itself observable.
	HeapBytes    uint64 `json:"heap_bytes"`
	Goroutines   int    `json:"goroutines"`
	SysRefreshes uint64 `json:"sys_refreshes"`
}

// CallpathStat is one callpath's accumulated latency statistics, read
// at scrape time (CallStats is cumulative and merge-friendly).
type CallpathStat struct {
	Side  string         `json:"side"` // "origin" or "target"
	Path  string         `json:"path"` // human-readable breadcrumb
	Peer  string         `json:"peer"`
	Stats core.CallStats `json:"stats"`
}

// Source is the read surface an observed instance exposes.
// margo.Instance implements it; tests substitute fakes.
type Source interface {
	// Addr identifies the instance (its fabric address).
	Addr() string
	// TelemetrySample reads the instance's live state.
	TelemetrySample() Sample
	// CallpathStats returns the per-callpath latency statistics.
	CallpathStats() []CallpathStat
}

// row is one named value of a Sample. Names are flat ("cq_depth") or
// carry a label in a path ("pool/<pool>/<stat>", "pvar/<name>",
// "batch_flush_reason/<reason>"); familyFor maps them to families.
type row struct {
	name string
	kind Kind
	v    float64
}

// sampleRows turns one Sample into its gauge and counter rows: the fixed
// fields, then the flush reasons in sorted order, then every PVAR, then
// four rows per pool.
func sampleRows(sm Sample) []row {
	draining := 0.0
	if sm.Draining {
		draining = 1
	}
	rows := []row{
		{"cq_depth", Gauge, float64(sm.CQDepth)},
		{"events_read", Counter, float64(sm.EventsRead)},
		{"events_posted", Counter, float64(sm.EventsPosted)},
		{"cq_overflows", Counter, float64(sm.CQOverflows)},
		{"trace_len", Gauge, float64(sm.TraceLen)},
		{"trace_dropped", Counter, float64(sm.TraceDropped)},
		{"sink_errors", Counter, float64(sm.SinkErrors)},
		{"origin_calls", Counter, float64(sm.OriginCalls)},
		{"target_calls", Counter, float64(sm.TargetCalls)},
		{"target_handler_nanos", Counter, float64(sm.TargetHandlerNanos)},
		{"target_total_nanos", Counter, float64(sm.TargetTotalNanos)},
		{"rpc_retries_total", Counter, float64(sm.RPCRetries)},
		{"rpc_timeouts_total", Counter, float64(sm.RPCTimeouts)},
		{"rpc_exhausted_total", Counter, float64(sm.RPCExhausted)},
		{"fault_drops_total", Counter, float64(sm.FaultDrops)},
		{"fault_dups_total", Counter, float64(sm.FaultDups)},
		{"fault_delays_total", Counter, float64(sm.FaultDelays)},
		{"fault_refusals_total", Counter, float64(sm.FaultRefusals)},
		{"overload_shed_total", Counter, float64(sm.OverloadShed)},
		{"overload_expired_total", Counter, float64(sm.OverloadExpired)},
		{"overload_breaker_trips_total", Counter, float64(sm.BreakerTrips)},
		{"overload_breaker_fastfail_total", Counter, float64(sm.BreakerFastFails)},
		{"overload_breaker_open", Gauge, float64(sm.BreakerOpen)},
		{"overload_admission_depth", Gauge, float64(sm.AdmissionDepth)},
		{"overload_draining", Gauge, draining},
		{"batch_flushes_total", Counter, float64(sm.BatchFlushes)},
		{"batch_ops_total", Counter, float64(sm.BatchOps)},
		{"batch_bytes_total", Counter, float64(sm.BatchBytes)},
		{"batch_retries_total", Counter, float64(sm.BatchRetries)},
		{"batch_coalesce_ratio", Gauge, sm.BatchCoalesceRatio},
		{"batch_window_occupancy", Gauge, float64(sm.BatchOccupancy)},
		{"batch_window_occupancy_hwm", Gauge, float64(sm.BatchOccupancyHWM)},
		{"sched_quanta_total", Counter, float64(sm.SchedQuanta)},
		{"sched_steals_total", Counter, float64(sm.SchedSteals)},
		{"sched_parks_total", Counter, float64(sm.SchedParks)},
		{"sched_wakes_total", Counter, float64(sm.SchedWakes)},
		{"progress_spin_polls_total", Counter, float64(sm.ProgressSpinPolls)},
		{"progress_parks_total", Counter, float64(sm.ProgressParks)},
		{"ofi_max_events", Gauge, float64(sm.OFIMaxEvents)},
		{"handler_streams", Gauge, float64(sm.HandlerStreams)},
		{"rpcs_in_flight", Gauge, float64(sm.RPCsInFlight)},
		{"heap_bytes", Gauge, float64(sm.HeapBytes)},
		{"goroutines", Gauge, float64(sm.Goroutines)},
		{"sys_refreshes", Counter, float64(sm.SysRefreshes)},
	}
	reasons := make([]string, 0, len(sm.BatchFlushReasons))
	for r := range sm.BatchFlushReasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		rows = append(rows, row{"batch_flush_reason/" + r, Counter, float64(sm.BatchFlushReasons[r])})
	}
	for _, pv := range sm.PVars {
		k := Gauge
		if pv.Counter {
			k = Counter
		}
		rows = append(rows, row{"pvar/" + pv.Name, k, float64(pv.Value)})
	}
	for _, p := range sm.Pools {
		rows = append(rows,
			row{"pool/" + p.Name + "/runnable", Gauge, float64(p.Runnable)},
			row{"pool/" + p.Name + "/blocked", Gauge, float64(p.Blocked)},
			row{"pool/" + p.Name + "/created", Counter, float64(p.Created)},
			row{"pool/" + p.Name + "/executed", Counter, float64(p.Executed)})
	}
	return rows
}
