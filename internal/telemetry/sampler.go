package telemetry

import (
	"sort"
	"sync"
	"time"

	"symbiosys/internal/core"
)

// PVarValue is one performance variable read through the instance's
// PVAR session at sampling time (the paper's Figure 3 handshake, driven
// on a timer instead of per-request).
type PVarValue struct {
	Name string `json:"name"`
	// Counter marks monotone variables; the rest are exported as gauges.
	Counter bool   `json:"counter,omitempty"`
	Value   uint64 `json:"value"`
}

// PoolStat is one Argobots pool's occupancy at sampling time.
type PoolStat struct {
	Name     string `json:"name"`
	Runnable int64  `json:"runnable"`
	Blocked  int64  `json:"blocked"`
	Created  uint64 `json:"created"`
	Executed uint64 `json:"executed"`
}

// Sample is one tick's snapshot of an instance: PVARs, pool occupancy,
// na-layer completion-queue state, collector health, and runtime stats.
// Cumulative counters stay cumulative here; the sampler's series derive
// deltas and rates.
type Sample struct {
	UnixNanos int64 `json:"unix_nanos"`

	PVars []PVarValue `json:"pvars,omitempty"`
	Pools []PoolStat  `json:"pools,omitempty"`

	// na completion-queue state (the t11→t12 backlog of the paper).
	CQDepth      int    `json:"cq_depth"`
	EventsRead   uint64 `json:"events_read"`
	EventsPosted uint64 `json:"events_posted"`
	CQOverflows  uint64 `json:"cq_overflows"`

	// Collector health.
	TraceLen     int    `json:"trace_len"`
	TraceDropped uint64 `json:"trace_dropped"`
	SinkErrors   uint64 `json:"sink_errors"`
	OriginCalls  uint64 `json:"origin_calls"`
	TargetCalls  uint64 `json:"target_calls"`

	// Cumulative handler/total nanos on the target side; the policy
	// engine's live feed derives windowed handler fractions from their
	// series deltas.
	TargetHandlerNanos uint64 `json:"target_handler_nanos"`
	TargetTotalNanos   uint64 `json:"target_total_nanos"`

	// Client-side resilience counters (margo retry policy) and the
	// fabric's injected-fault totals, so a failing link and the retries
	// absorbing it are visible live in /metrics and symmon.
	RPCRetries    uint64 `json:"rpc_retries"`
	RPCTimeouts   uint64 `json:"rpc_timeouts"`
	RPCExhausted  uint64 `json:"rpc_exhausted"`
	RPCCancels    uint64 `json:"rpc_cancels"`
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

	// Instance tuning knobs, exported so remediations show up in the
	// series the moment a policy applies them.
	OFIMaxEvents   int   `json:"ofi_max_events"`
	HandlerStreams int   `json:"handler_streams"`
	RPCsInFlight   int64 `json:"rpcs_in_flight"`

	// Runtime stats (from core.SysSampler) plus its refresh counter, so
	// the cost of system sampling is itself observable.
	HeapBytes    uint64 `json:"heap_bytes"`
	Goroutines   int    `json:"goroutines"`
	SysRefreshes uint64 `json:"sys_refreshes"`
}

// CallpathStat is one callpath's accumulated latency statistics,
// fetched on demand at scrape time (histograms are not ring-buffered
// per tick; CallStats is already cumulative and merge-friendly).
type CallpathStat struct {
	Side  string         `json:"side"` // "origin" or "target"
	Path  string         `json:"path"` // human-readable breadcrumb
	Peer  string         `json:"peer"`
	Stats core.CallStats `json:"stats"`
}

// Source is the sampling surface an observed instance exposes.
// margo.Instance implements it; tests substitute fakes.
type Source interface {
	// Addr identifies the instance (its fabric address).
	Addr() string
	// TelemetrySample snapshots the instance's live state.
	TelemetrySample() Sample
	// CallpathStats returns the per-callpath latency statistics.
	CallpathStats() []CallpathStat
}

// Options configures a Sampler.
type Options struct {
	// Interval is the sampling tick. Default 100ms.
	Interval time.Duration
}

// windowPoints bounds each series ring: one minute of history at the
// default tick.
const windowPoints = 600

func (o *Options) fillDefaults() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
}

// Sampler periodically snapshots one Source into named time-series
// rings. It is safe for concurrent use: the tick goroutine writes under
// the same mutex scrapers read under.
type Sampler struct {
	src  Source
	opts Options

	mu     sync.Mutex
	series map[string]*Series
	order  []string // insertion order, for stable exposition
	last   Sample
	ticks  uint64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewSampler builds a sampler over src. Call Start to begin ticking, or
// SampleOnce to drive it manually (tests, symmon-style pull models).
func NewSampler(src Source, opts Options) *Sampler {
	opts.fillDefaults()
	return &Sampler{
		src:    src,
		opts:   opts,
		series: make(map[string]*Series),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Source returns the observed instance.
func (s *Sampler) Source() Source { return s.src }

// Interval reports the configured tick.
func (s *Sampler) Interval() time.Duration { return s.opts.Interval }

// Start launches the periodic tick goroutine. Safe to call once.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.opts.Interval)
			defer t.Stop()
			s.SampleOnce()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.SampleOnce()
				}
			}
		}()
	})
}

// Stop halts the tick goroutine and waits for it to exit. Safe to call
// without Start and safe to call twice.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: unblock Stop
	<-s.done
}

// SampleOnce takes one snapshot and folds it into the series rings.
func (s *Sampler) SampleOnce() Sample {
	sm := s.src.TelemetrySample()
	if sm.UnixNanos == 0 {
		sm.UnixNanos = time.Now().UnixNano()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = sm
	s.ticks++
	t := sm.UnixNanos
	s.push(t, "cq_depth", Gauge, float64(sm.CQDepth))
	s.push(t, "events_read", Counter, float64(sm.EventsRead))
	s.push(t, "events_posted", Counter, float64(sm.EventsPosted))
	s.push(t, "cq_overflows", Counter, float64(sm.CQOverflows))
	s.push(t, "trace_len", Gauge, float64(sm.TraceLen))
	s.push(t, "trace_dropped", Counter, float64(sm.TraceDropped))
	s.push(t, "sink_errors", Counter, float64(sm.SinkErrors))
	s.push(t, "origin_calls", Counter, float64(sm.OriginCalls))
	s.push(t, "target_calls", Counter, float64(sm.TargetCalls))
	s.push(t, "target_handler_nanos", Counter, float64(sm.TargetHandlerNanos))
	s.push(t, "target_total_nanos", Counter, float64(sm.TargetTotalNanos))
	s.push(t, "rpc_retries_total", Counter, float64(sm.RPCRetries))
	s.push(t, "rpc_timeouts_total", Counter, float64(sm.RPCTimeouts))
	s.push(t, "rpc_exhausted_total", Counter, float64(sm.RPCExhausted))
	s.push(t, "rpc_cancels_total", Counter, float64(sm.RPCCancels))
	s.push(t, "fault_drops_total", Counter, float64(sm.FaultDrops))
	s.push(t, "fault_dups_total", Counter, float64(sm.FaultDups))
	s.push(t, "fault_delays_total", Counter, float64(sm.FaultDelays))
	s.push(t, "fault_refusals_total", Counter, float64(sm.FaultRefusals))
	s.push(t, "overload_shed_total", Counter, float64(sm.OverloadShed))
	s.push(t, "overload_expired_total", Counter, float64(sm.OverloadExpired))
	s.push(t, "overload_breaker_trips_total", Counter, float64(sm.BreakerTrips))
	s.push(t, "overload_breaker_fastfail_total", Counter, float64(sm.BreakerFastFails))
	s.push(t, "overload_breaker_open", Gauge, float64(sm.BreakerOpen))
	s.push(t, "overload_admission_depth", Gauge, float64(sm.AdmissionDepth))
	draining := 0.0
	if sm.Draining {
		draining = 1
	}
	s.push(t, "overload_draining", Gauge, draining)
	s.push(t, "batch_flushes_total", Counter, float64(sm.BatchFlushes))
	s.push(t, "batch_ops_total", Counter, float64(sm.BatchOps))
	s.push(t, "batch_bytes_total", Counter, float64(sm.BatchBytes))
	s.push(t, "batch_retries_total", Counter, float64(sm.BatchRetries))
	s.push(t, "batch_coalesce_ratio", Gauge, sm.BatchCoalesceRatio)
	s.push(t, "batch_window_occupancy", Gauge, float64(sm.BatchOccupancy))
	s.push(t, "batch_window_occupancy_hwm", Gauge, float64(sm.BatchOccupancyHWM))
	if len(sm.BatchFlushReasons) > 0 {
		// Sorted so series registration (first-seen order) is stable
		// across runs regardless of map iteration.
		reasons := make([]string, 0, len(sm.BatchFlushReasons))
		for r := range sm.BatchFlushReasons {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			s.push(t, "batch_flush_reason/"+r, Counter, float64(sm.BatchFlushReasons[r]))
		}
	}
	s.push(t, "sched_quanta_total", Counter, float64(sm.SchedQuanta))
	s.push(t, "sched_steals_total", Counter, float64(sm.SchedSteals))
	s.push(t, "sched_parks_total", Counter, float64(sm.SchedParks))
	s.push(t, "sched_wakes_total", Counter, float64(sm.SchedWakes))
	s.push(t, "progress_spin_polls_total", Counter, float64(sm.ProgressSpinPolls))
	s.push(t, "progress_parks_total", Counter, float64(sm.ProgressParks))
	s.push(t, "ofi_max_events", Gauge, float64(sm.OFIMaxEvents))
	s.push(t, "handler_streams", Gauge, float64(sm.HandlerStreams))
	s.push(t, "rpcs_in_flight", Gauge, float64(sm.RPCsInFlight))
	s.push(t, "heap_bytes", Gauge, float64(sm.HeapBytes))
	s.push(t, "goroutines", Gauge, float64(sm.Goroutines))
	s.push(t, "sys_refreshes", Counter, float64(sm.SysRefreshes))
	for _, pv := range sm.PVars {
		k := Gauge
		if pv.Counter {
			k = Counter
		}
		s.push(t, "pvar/"+pv.Name, k, float64(pv.Value))
	}
	for _, p := range sm.Pools {
		s.push(t, "pool/"+p.Name+"/runnable", Gauge, float64(p.Runnable))
		s.push(t, "pool/"+p.Name+"/blocked", Gauge, float64(p.Blocked))
		s.push(t, "pool/"+p.Name+"/created", Counter, float64(p.Created))
		s.push(t, "pool/"+p.Name+"/executed", Counter, float64(p.Executed))
	}
	return sm
}

// push must run with s.mu held.
func (s *Sampler) push(t int64, name string, kind Kind, v float64) {
	sr := s.series[name]
	if sr == nil {
		sr = NewSeries(kind, windowPoints)
		s.series[name] = sr
		s.order = append(s.order, name)
	}
	sr.Push(t, v)
}

// Ticks reports how many samples have been taken.
func (s *Sampler) Ticks() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// Last returns the most recent sample, if one has been taken.
func (s *Sampler) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.ticks > 0
}

// SeriesNames returns the known series names in first-seen order.
func (s *Sampler) SeriesNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// SeriesSnapshot returns an immutable copy of one series' window, with
// its kind, or ok=false if the series does not exist yet.
func (s *Sampler) SeriesSnapshot(name string) (kind Kind, pts []Point, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[name]
	if sr == nil {
		return 0, nil, false
	}
	return sr.kind, sr.Points(), true
}

// Callpaths fetches the per-callpath latency statistics from the
// source, sorted by cumulative time descending (dominant first).
func (s *Sampler) Callpaths() []CallpathStat {
	cps := s.src.CallpathStats()
	sort.Slice(cps, func(i, j int) bool {
		if cps[i].Stats.CumNanos != cps[j].Stats.CumNanos {
			return cps[i].Stats.CumNanos > cps[j].Stats.CumNanos
		}
		if cps[i].Side != cps[j].Side {
			return cps[i].Side < cps[j].Side
		}
		if cps[i].Path != cps[j].Path {
			return cps[i].Path < cps[j].Path
		}
		return cps[i].Peer < cps[j].Peer
	})
	return cps
}
