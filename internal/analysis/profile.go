// Package analysis implements the SYMBIOSYS postprocessing tools: the
// profile summary that merges per-process callpath profiles and ranks
// dominant callpaths (paper §V-A2, Figure 6), the trace stitcher that
// reassembles distributed request traces and exports them in Zipkin v2
// JSON (Figure 5), derived time series for saturation diagnosis
// (Figures 10–12), and the system statistics summary (Table V).
package analysis

import (
	"sort"
	"time"

	"symbiosys/internal/core"
)

// MergedProfile is the global view over all per-process profile dumps.
type MergedProfile struct {
	Names map[uint16]string

	// Origin and Target aggregate stats by (callpath, peer); the
	// per-entity distributions are kept for the call-count breakdowns.
	Origin map[core.StatKey]*core.CallStats
	Target map[core.StatKey]*core.CallStats

	// OriginByEntity[bc][entity] counts calls issued per origin entity;
	// TargetByEntity[bc][entity] counts calls serviced per target.
	OriginByEntity map[core.Breadcrumb]map[string]uint64
	TargetByEntity map[core.Breadcrumb]map[string]uint64

	// TraceDropped totals the trace events the contributing processes
	// discarded at their capacity bounds (nonzero means the run's trace
	// view is truncated even though the profile itself is complete).
	TraceDropped uint64
}

// Merge performs the global aggregation of the profile summary script.
func Merge(dumps []*core.ProfileDump) *MergedProfile {
	m := &MergedProfile{
		Names:          make(map[uint16]string),
		Origin:         make(map[core.StatKey]*core.CallStats),
		Target:         make(map[core.StatKey]*core.CallStats),
		OriginByEntity: make(map[core.Breadcrumb]map[string]uint64),
		TargetByEntity: make(map[core.Breadcrumb]map[string]uint64),
	}
	for _, d := range dumps {
		m.TraceDropped += d.TraceDropped
		for h, n := range d.Names {
			m.Names[h] = n
		}
		for _, e := range d.Origin {
			key := core.StatKey{BC: core.Breadcrumb(e.BC), Peer: e.Peer}
			s := m.Origin[key]
			if s == nil {
				s = &core.CallStats{}
				m.Origin[key] = s
			}
			stats := e.Stats
			s.Merge(&stats)
			byEnt := m.OriginByEntity[key.BC]
			if byEnt == nil {
				byEnt = make(map[string]uint64)
				m.OriginByEntity[key.BC] = byEnt
			}
			byEnt[d.Entity] += e.Stats.Count
		}
		for _, e := range d.Target {
			key := core.StatKey{BC: core.Breadcrumb(e.BC), Peer: e.Peer}
			s := m.Target[key]
			if s == nil {
				s = &core.CallStats{}
				m.Target[key] = s
			}
			stats := e.Stats
			s.Merge(&stats)
			byEnt := m.TargetByEntity[key.BC]
			if byEnt == nil {
				byEnt = make(map[string]uint64)
				m.TargetByEntity[key.BC] = byEnt
			}
			byEnt[d.Entity] += e.Stats.Count
		}
	}
	return m
}

// CallpathRow is one ranked callpath in the profile summary.
type CallpathRow struct {
	BC   core.Breadcrumb
	Name string

	// Origin-side aggregate (end-to-end request latency).
	Count    uint64
	CumNanos uint64
	MinNanos uint64
	MaxNanos uint64

	// Component breakdown fused from both sides (indexed by Component).
	Components [core.NumComponents]uint64

	// Hist is the merged call-time distribution (log2 buckets).
	Hist [core.HistBuckets]uint32

	// Call-count distributions across participating entities.
	OriginDist map[string]uint64
	TargetDist map[string]uint64
}

// Mean returns the average end-to-end latency of the callpath.
func (r *CallpathRow) Mean() time.Duration {
	if r.Count == 0 {
		return 0
	}
	return time.Duration(r.CumNanos / r.Count)
}

// Percentile estimates the p-th percentile end-to-end latency from the
// merged call-time distribution.
func (r *CallpathRow) Percentile(p float64) time.Duration {
	s := core.CallStats{
		Count:    r.Count,
		MinNanos: r.MinNanos,
		MaxNanos: r.MaxNanos,
		Hist:     r.Hist,
	}
	return s.Percentile(p)
}

// TargetExecExclusive returns the target execution time excluding the
// PVAR-measured (de)serialization sub-intervals, the "(exclusive)" form
// of Table III.
func (r *CallpathRow) TargetExecExclusive() uint64 {
	excl := r.Components[core.CompTargetExec]
	sub := r.Components[core.CompInputDeser] + r.Components[core.CompOutputSer]
	if sub > excl {
		return 0
	}
	return excl - sub
}

// DominantCallpaths ranks callpaths by cumulative end-to-end request
// latency (the Figure 6 ordering) and returns the top n (n <= 0: all).
func (m *MergedProfile) DominantCallpaths(n int) []CallpathRow {
	byBC := make(map[core.Breadcrumb]*CallpathRow)
	for key, s := range m.Origin {
		row := byBC[key.BC]
		if row == nil {
			row = &CallpathRow{
				BC:         key.BC,
				Name:       core.FormatTable(m.Names, key.BC),
				OriginDist: m.OriginByEntity[key.BC],
				TargetDist: m.TargetByEntity[key.BC],
				MinNanos:   s.MinNanos,
			}
			byBC[key.BC] = row
		}
		row.Count += s.Count
		row.CumNanos += s.CumNanos
		if s.MinNanos < row.MinNanos {
			row.MinNanos = s.MinNanos
		}
		if s.MaxNanos > row.MaxNanos {
			row.MaxNanos = s.MaxNanos
		}
		for i, v := range s.Components {
			row.Components[i] += v
		}
		for i, v := range s.Hist {
			row.Hist[i] += v
		}
	}
	// Fuse target-side components for the same callpaths.
	for key, s := range m.Target {
		row := byBC[key.BC]
		if row == nil {
			// Target-only view (the origin may be unprofiled).
			row = &CallpathRow{
				BC:         key.BC,
				Name:       core.FormatTable(m.Names, key.BC),
				OriginDist: m.OriginByEntity[key.BC],
				TargetDist: m.TargetByEntity[key.BC],
			}
			row.Count = s.Count
			row.CumNanos = s.CumNanos
			byBC[key.BC] = row
		}
		for _, c := range []core.Component{
			core.CompRDMA, core.CompHandler, core.CompInputDeser,
			core.CompTargetExec, core.CompOutputSer, core.CompTargetCB,
		} {
			row.Components[c] += s.Components[c]
		}
	}
	rows := make([]CallpathRow, 0, len(byBC))
	for _, r := range byBC {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].CumNanos != rows[j].CumNanos {
			return rows[i].CumNanos > rows[j].CumNanos
		}
		return rows[i].BC < rows[j].BC
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// CumulativeTargetExecution sums the target-side component times for one
// callpath — the stacked bar of the paper's Figure 9.
func (m *MergedProfile) CumulativeTargetExecution(bc core.Breadcrumb) (total time.Duration, comps [core.NumComponents]uint64) {
	for key, s := range m.Target {
		if key.BC != bc {
			continue
		}
		for i, v := range s.Components {
			comps[i] += v
		}
	}
	total = time.Duration(comps[core.CompRDMA] + comps[core.CompHandler] +
		comps[core.CompTargetExec] + comps[core.CompTargetCB])
	return total, comps
}
