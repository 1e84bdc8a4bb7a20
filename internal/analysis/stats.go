package analysis

import (
	"sort"

	"symbiosys/internal/core"
)

// EntityStats summarizes the system-level samples one process emitted.
type EntityStats struct {
	Entity string
	Events int
	// Dropped counts trace events this process discarded at its
	// capacity bound — nonzero means the stats below undercount.
	Dropped uint64

	MaxBlocked   int64
	MeanBlocked  float64
	MaxRunnable  int64
	MeanRunnable float64

	MaxOFIRead  uint64
	MeanOFIRead float64
	// OFIAtCap counts samples where the progress loop read its full
	// OFI_max_events budget — the clogged-queue signal of Figure 12.
	OFIAtCap int

	MaxCQ      uint64
	MaxHeap    uint64
	Goroutines int

	// BatchedOps counts completed origin chains that traveled inside a
	// coalesced (vectored) forward; BatchFlushes the distinct batch IDs
	// among them. Their ratio is the realized coalesce factor.
	BatchedOps   int
	BatchFlushes int
}

// SystemStats computes the per-entity system statistics summary (the
// third analysis script of Table V). capEvents is the configured
// OFI_max_events used to count at-capacity samples.
func SystemStats(ts *TraceSet, capEvents uint64) []EntityStats {
	agg := make(map[string]*EntityStats)
	type sums struct {
		blocked, runnable float64
		ofi               float64
		ofiCount          int
		batchIDs          map[uint64]bool
	}
	sum := make(map[string]*sums)
	ts.EachEvent(func(e *core.Event) {
		s := agg[e.Entity]
		if s == nil {
			s = &EntityStats{Entity: e.Entity}
			agg[e.Entity] = s
			sum[e.Entity] = &sums{}
		}
		sm := sum[e.Entity]
		s.Events++
		if e.Sys.PoolBlocked > s.MaxBlocked {
			s.MaxBlocked = e.Sys.PoolBlocked
		}
		if e.Sys.PoolRunnable > s.MaxRunnable {
			s.MaxRunnable = e.Sys.PoolRunnable
		}
		sm.blocked += float64(e.Sys.PoolBlocked)
		sm.runnable += float64(e.Sys.PoolRunnable)
		if e.Sys.HeapBytes > s.MaxHeap {
			s.MaxHeap = e.Sys.HeapBytes
		}
		if e.Sys.Goroutines > s.Goroutines {
			s.Goroutines = e.Sys.Goroutines
		}
		if e.PVars != nil {
			if e.PVars.OFIEventsRead > s.MaxOFIRead {
				s.MaxOFIRead = e.PVars.OFIEventsRead
			}
			sm.ofi += float64(e.PVars.OFIEventsRead)
			sm.ofiCount++
			if capEvents > 0 && e.PVars.OFIEventsRead >= capEvents {
				s.OFIAtCap++
			}
			if e.PVars.CompletionQueue > s.MaxCQ {
				s.MaxCQ = e.PVars.CompletionQueue
			}
		}
		if e.Kind == core.EvOriginEnd && e.BatchID != 0 {
			s.BatchedOps++
			if sm.batchIDs == nil {
				sm.batchIDs = make(map[uint64]bool)
			}
			sm.batchIDs[e.BatchID] = true
		}
	})
	// Attribute drops even for entities whose every event was dropped.
	for ent, n := range ts.DroppedBy {
		s := agg[ent]
		if s == nil {
			s = &EntityStats{Entity: ent}
			agg[ent] = s
			sum[ent] = &sums{}
		}
		s.Dropped = n
	}
	out := make([]EntityStats, 0, len(agg))
	for ent, s := range agg {
		sm := sum[ent]
		if s.Events > 0 {
			s.MeanBlocked = sm.blocked / float64(s.Events)
			s.MeanRunnable = sm.runnable / float64(s.Events)
		}
		if sm.ofiCount > 0 {
			s.MeanOFIRead = sm.ofi / float64(sm.ofiCount)
		}
		s.BatchFlushes = len(sm.batchIDs)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entity < out[j].Entity })
	return out
}
