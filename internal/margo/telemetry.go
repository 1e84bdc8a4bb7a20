package margo

import (
	"sort"
	"time"

	"symbiosys/internal/core"
	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/telemetry"
)

// margo.Instance implements telemetry.Source: each scrape reads one
// Sample through the same PVAR session Margo opened at initialization
// (paper Figure 3), so live monitoring reads exactly the variables the
// measurement pipeline fuses into traces.
var _ telemetry.Source = (*Instance)(nil)

// TelemetrySample reads the instance's live state for a telemetry
// scrape: every library-global PVAR, per-pool occupancy,
// na-layer completion-queue counters, and measurement-store health.
func (i *Instance) TelemetrySample() telemetry.Sample {
	s := telemetry.Sample{
		UnixNanos:      time.Now().UnixNano(),
		CQDepth:        i.ep.CQDepth(),
		EventsRead:     i.ep.EventsRead(),
		EventsPosted:   i.ep.EventsPosted(),
		CQOverflows:    i.ep.Overflows(),
		OFIMaxEvents:   i.hg.Config().OFIMaxEvents,
		HandlerStreams: i.opts.HandlerStreams,
		RPCsInFlight:   i.rpcsInFlight.Load(),
		SysRefreshes:   i.sys.Refreshes(),
		RPCRetries:     i.retriesTotal.Load(),
		RPCTimeouts:    i.timeoutsTotal.Load(),
		RPCExhausted:   i.exhaustedTotal.Load(),
		FaultDrops:     i.ep.FaultDrops(),
		FaultDups:      i.ep.FaultDups(),
		FaultDelays:    i.ep.FaultDelays(),
		FaultRefusals:  i.ep.FaultRefusals(),

		OverloadShed:     i.shedTotal.Load(),
		OverloadExpired:  i.expiredTotal.Load(),
		BreakerTrips:     i.breakerTripsTotal.Load(),
		BreakerFastFails: i.breakerFastFailsTotal.Load(),
		BreakerOpen:      i.openBreakers(),
		AdmissionDepth:   i.handlersInFlight.Load(),
		Draining:         i.draining.Load(),
	}

	if i.batchPol != nil {
		bs := i.BatchStats()
		s.BatchFlushes = bs.Flushes
		s.BatchOps = bs.Ops
		s.BatchBytes = bs.Bytes
		s.BatchRetries = bs.Retries
		s.BatchCoalesceRatio = bs.CoalesceRatio
		s.BatchOccupancy = bs.LastOccupancy
		s.BatchOccupancyHWM = bs.OccupancyHWM
		s.BatchFlushReasons = bs.FlushReasons
	}

	sched := i.rt.SchedStats()
	s.SchedQuanta = sched.Quanta
	s.SchedSteals = sched.Steals
	s.SchedParks = sched.Parks
	s.SchedWakes = sched.Wakes
	s.ProgressSpinPolls = i.progressSpinsTotal.Load()
	s.ProgressParks = i.progressParksTotal.Load()

	sys := i.sys.Sample()
	s.HeapBytes = sys.HeapBytes
	s.Goroutines = sys.Goroutines

	s.TraceLen = i.prof.TraceLen()
	s.TraceDropped = i.prof.TraceDropped()
	s.SinkErrors = i.prof.SinkErrors()
	var handler, total uint64
	for _, st := range i.prof.OriginStats() {
		s.OriginCalls += st.Count
	}
	for _, st := range i.prof.TargetStats() {
		s.TargetCalls += st.Count
		handler += st.Components[core.CompHandler]
		total += st.CumNanos
	}
	s.TargetHandlerNanos = handler
	s.TargetTotalNanos = total

	if infos, err := i.session.Query(); err == nil {
		for _, info := range infos {
			if info.Binding != pvar.BindNoObject {
				continue // handle-bound PVARs have no instance-wide value
			}
			h := i.globalPVarHandle(info.Name)
			if h == nil {
				continue // Margo only holds handles for the fused set
			}
			v, err := i.session.Read(h, nil)
			if err != nil {
				continue
			}
			s.PVars = append(s.PVars, telemetry.PVarValue{
				Name:    info.Name,
				Counter: info.Class == pvar.ClassCounter,
				Value:   v,
			})
		}
	}

	pools := i.rt.Pools()
	sort.Slice(pools, func(a, b int) bool { return pools[a].Name() < pools[b].Name() })
	for _, p := range pools {
		st := p.Snapshot()
		s.Pools = append(s.Pools, telemetry.PoolStat{
			Name:     p.Name(),
			Runnable: int64(st.Runnable),
			Blocked:  st.Blocked,
			Created:  st.Created,
			Executed: st.Executed,
		})
	}
	return s
}

// CallpathStats exports the per-callpath latency statistics with
// human-readable paths (hop hashes resolved through the instance's name
// registry), both sides of the RPC.
func (i *Instance) CallpathStats() []telemetry.CallpathStat {
	names := i.prof.Names()
	var out []telemetry.CallpathStat
	for side, stats := range map[string]map[core.StatKey]core.CallStats{
		"origin": i.prof.OriginStats(),
		"target": i.prof.TargetStats(),
	} {
		for k, st := range stats {
			out = append(out, telemetry.CallpathStat{
				Side:  side,
				Path:  names.Format(k.BC),
				Peer:  k.Peer,
				Stats: st,
			})
		}
	}
	return out
}
