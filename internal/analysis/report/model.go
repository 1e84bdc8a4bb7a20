// Package report is the shared rendering layer of the SYMBIOSYS
// analysis plane: one report model, three output modes (cli, tui,
// html), consumed by the sym tool's subcommands and emitted
// automatically by the experiment drivers. Analyses build a Model (a
// sequence of sections holding free text, aligned tables, and
// flame-style bars); the renderers share it, so every tool's -o flag
// behaves identically and golden tests pin one format per mode.
package report

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
)

// Model is one renderable report.
type Model struct {
	Title string
	// Generated is a caller-stamped timestamp line (free-form). Kept a
	// plain string — never time.Now() inside renderers — so golden
	// tests are deterministic.
	Generated string
	// Notes are run-quality warnings surfaced above all sections:
	// dropped events, truncated JSONL tails, incomplete requests.
	Notes    []string
	Sections []Section
}

// Section is one titled block of a report.
type Section struct {
	Title string
	// Body lines render as plain text (cli idiom).
	Body []string
	// Table renders aligned in text modes, as <table> in html.
	Table *Table
	// Bars render as a flame-style bar chart: width ∝ Frac.
	Bars []Bar
}

// Table is a simple header + rows grid.
type Table struct {
	Header []string
	Rows   [][]string
}

// Bar is one flame bar.
type Bar struct {
	// Label names the bar; Detail carries the stats suffix.
	Label  string
	Detail string
	// Frac is the bar's share of its reference whole, in [0, 1].
	Frac float64
	// Level indents nested bars (flame depth).
	Level int
	// Class keys the color: a SegKind name ("queue", "exec", ...) or
	// "delta+"/"delta-" for diff bars.
	Class string
}

// FromFlame builds the dominant-path report of one run: the top path
// shapes by cumulative time, each expanded into per-segment bars with
// p50/p99, plus the extraction stats.
func FromFlame(title string, f *analysis.Flame, top int) *Model {
	m := &Model{Title: title}
	m.Notes = append(m.Notes, flameNotes(&f.Stats)...)

	var runCum uint64
	for i := range f.Paths {
		runCum += f.Paths[i].CumNanos
	}
	m.Sections = append(m.Sections, Section{
		Title: "Run",
		Body: []string{
			fmt.Sprintf("requests %d, paths extracted %d, path shapes %d, cumulative path time %v",
				f.Stats.Requests, f.Stats.Extracted, len(f.Paths), fmtNanos(int64(runCum))),
		},
	})

	paths := f.Paths
	if top > 0 && len(paths) > top {
		m.Notes = append(m.Notes, fmt.Sprintf("showing top %d of %d path shapes by cumulative time", top, len(paths)))
		paths = paths[:top]
	}
	for i := range paths {
		m.Sections = append(m.Sections, flameSection(&paths[i], i, runCum))
	}
	return m
}

func flameNotes(st *analysis.PathStats) []string {
	var notes []string
	if st.Incomplete > 0 {
		notes = append(notes, fmt.Sprintf(
			"%d of %d requests have incomplete span sets (missing target view); their paths carry unmatched segments",
			st.Incomplete, st.Requests))
	}
	if st.Failed > 0 {
		notes = append(notes, fmt.Sprintf("%d requests ended in failure", st.Failed))
	}
	if st.Retried > 0 {
		notes = append(notes, fmt.Sprintf("%d requests were retried", st.Retried))
	}
	return notes
}

func flameSection(p *analysis.FlamePath, rank int, runCum uint64) Section {
	share := 0.0
	if runCum > 0 {
		share = float64(p.CumNanos) / float64(runCum)
	}
	sec := Section{
		Title: fmt.Sprintf("#%d  %s", rank+1, shapeLabel(p)),
		Body: []string{
			fmt.Sprintf("count %d  cum %v (%.1f%% of run)  mean %v  p50 %v  p99 %v",
				p.Count, fmtNanos(int64(p.CumNanos)), 100*share,
				fmtNanos(p.MeanNanos()),
				fmtDur(p.Total.Percentile(50)), fmtDur(p.Total.Percentile(99))),
		},
	}
	if p.Failed > 0 || p.Retried > 0 || p.Incomplete > 0 {
		sec.Body = append(sec.Body, fmt.Sprintf("failed %d  retried %d  incomplete %d",
			p.Failed, p.Retried, p.Incomplete))
	}
	mean := p.MeanNanos()
	dom := p.DominantSegment()
	for i := range p.Segments {
		s := &p.Segments[i]
		var segMean int64
		if s.Stats.Count > 0 {
			segMean = int64(s.Stats.CumNanos / s.Stats.Count)
		}
		frac := 0.0
		if mean > 0 {
			frac = float64(segMean) / float64(mean)
		}
		label := fmt.Sprintf("%s.%s", s.RPC, s.Kind)
		if i == dom {
			label += " *"
		}
		sec.Bars = append(sec.Bars, Bar{
			Label: label,
			Detail: fmt.Sprintf("mean %v  p50 %v  p99 %v",
				fmtNanos(segMean), fmtDur(s.P50()), fmtDur(s.P99())),
			Frac:  frac,
			Level: s.Depth - 1,
			Class: s.Kind.String(),
		})
	}
	return sec
}

// shapeLabel compresses a shape string into a headline: the hop
// sequence with segment kinds elided, e.g. "put → forward(put)".
func shapeLabel(p *analysis.FlamePath) string {
	var hops []string
	last := ""
	for i := range p.Segments {
		s := &p.Segments[i]
		key := fmt.Sprintf("%d:%s", s.Depth, s.RPC)
		if key != last {
			hops = append(hops, fmt.Sprintf("%s@%d", s.RPC, s.Depth))
			last = key
		}
	}
	out := ""
	for i, h := range hops {
		if i > 0 {
			out += " → "
		}
		out += h
	}
	return out
}

// FromFlameDiff builds the two-run comparison report: structural
// changes first, then the biggest weighted movers, each expanded into
// per-segment delta bars with significance flags.
func FromFlameDiff(title string, d *analysis.FlameDiff, top int) *Model {
	m := &Model{Title: title}
	m.Sections = append(m.Sections, Section{
		Title: "Runs",
		Body: []string{
			fmt.Sprintf("before: %d requests (%d incomplete, %d failed, %d retried)",
				d.Before.Requests, d.Before.Incomplete, d.Before.Failed, d.Before.Retried),
			fmt.Sprintf("after:  %d requests (%d incomplete, %d failed, %d retried)",
				d.After.Requests, d.After.Incomplete, d.After.Failed, d.After.Retried),
		},
	})
	paths := d.Paths
	if top > 0 && len(paths) > top {
		m.Notes = append(m.Notes, fmt.Sprintf("showing top %d of %d path shapes by weighted delta", top, len(paths)))
		paths = paths[:top]
	}
	for i := range paths {
		m.Sections = append(m.Sections, diffSection(&paths[i], i))
	}
	if verdict := diffVerdict(d); verdict != "" {
		m.Sections = append(m.Sections, Section{Title: "Verdict", Body: []string{verdict}})
	}
	return m
}

func diffSection(p *analysis.PathDelta, rank int) Section {
	var sec Section
	switch {
	case p.New:
		sec.Title = fmt.Sprintf("#%d  [NEW]  %s", rank+1, p.Shape)
		sec.Body = []string{fmt.Sprintf("after only: count %d  mean %v", p.CountAfter, fmtNanos(p.MeanAfter))}
		return sec
	case p.Gone:
		sec.Title = fmt.Sprintf("#%d  [GONE] %s", rank+1, p.Shape)
		sec.Body = []string{fmt.Sprintf("before only: count %d  mean %v", p.CountBefore, fmtNanos(p.MeanBefore))}
		return sec
	}
	sec.Title = fmt.Sprintf("#%d  [%+.2fx] %s", rank+1, p.Ratio, p.Shape)
	sec.Body = []string{fmt.Sprintf("mean %v -> %v (%+v)  count %d -> %d",
		fmtNanos(p.MeanBefore), fmtNanos(p.MeanAfter), fmtNanos(p.DeltaNanos),
		p.CountBefore, p.CountAfter)}

	// Bars scale to the largest absolute segment delta in this shape.
	var maxAbs int64 = 1
	for i := range p.Segments {
		if v := absNanos(p.Segments[i].DeltaNanos); v > maxAbs {
			maxAbs = v
		}
	}
	for i := range p.Segments {
		s := &p.Segments[i]
		class := "delta+"
		if s.DeltaNanos < 0 {
			class = "delta-"
		}
		label := fmt.Sprintf("%s.%s", s.RPC, s.Kind)
		if s.Significant {
			label += " !"
		}
		sec.Bars = append(sec.Bars, Bar{
			Label: label,
			Detail: fmt.Sprintf("mean %v -> %v (%+v)",
				fmtNanos(s.MeanBefore), fmtNanos(s.MeanAfter), fmtNanos(s.DeltaNanos)),
			Frac:  float64(absNanos(s.DeltaNanos)) / float64(maxAbs),
			Level: s.Depth - 1,
			Class: class,
		})
	}
	return sec
}

// diffVerdict names the single segment position carrying the largest
// significant regression across all aligned shapes — the "where did the
// time go" one-liner.
func diffVerdict(d *analysis.FlameDiff) string {
	var worst *analysis.SegmentDelta
	var worstShape string
	var worstWeight int64
	for i := range d.Paths {
		p := &d.Paths[i]
		if p.New || p.Gone {
			continue
		}
		n := int64(p.CountAfter)
		if n == 0 {
			n = 1
		}
		for j := range p.Segments {
			s := &p.Segments[j]
			if !s.Significant || s.DeltaNanos <= 0 {
				continue
			}
			if w := s.DeltaNanos * n; worst == nil || w > worstWeight {
				worst, worstShape, worstWeight = s, p.Shape, w
			}
		}
	}
	if worst == nil {
		return "no significant per-segment regression localized"
	}
	return fmt.Sprintf("dominant regression: %s.%s at depth %d (%+v/request) on shape %s",
		worst.RPC, worst.Kind, worst.Depth, fmtNanos(worst.DeltaNanos), worstShape)
}

// FromProfile builds the dominant-callpath report (the sym prof view)
// over the shared model.
func FromProfile(title string, mp *analysis.MergedProfile, top int) *Model {
	m := &Model{Title: title}
	if mp.TraceDropped > 0 {
		m.Notes = append(m.Notes, fmt.Sprintf(
			"%d trace events dropped at capacity (trace view truncated)", mp.TraceDropped))
	}
	all := mp.DominantCallpaths(0)
	var runCum uint64
	for i := range all {
		runCum += all[i].CumNanos
	}
	rows := all
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	for i := range rows {
		r := &rows[i]
		share := 0.0
		if runCum > 0 {
			share = float64(r.CumNanos) / float64(runCum)
		}
		sec := Section{
			Title: fmt.Sprintf("#%d  %s", i+1, r.Name),
			Body: []string{fmt.Sprintf("calls %d  cum %v (%.1f%% of run)  mean %v  p50 %v  p95 %v  p99 %v",
				r.Count, fmtNanos(int64(r.CumNanos)), 100*share, fmtDur(r.Mean()),
				fmtDur(r.Percentile(50)), fmtDur(r.Percentile(95)), fmtDur(r.Percentile(99)))},
		}
		if len(r.OriginDist) > 0 {
			sec.Body = append(sec.Body, distLine("origins:", r.OriginDist))
		}
		if len(r.TargetDist) > 0 {
			sec.Body = append(sec.Body, distLine("targets:", r.TargetDist))
		}
		mean := int64(0)
		if r.Count > 0 {
			mean = int64(r.CumNanos / r.Count)
		}
		for c := 0; c < int(core.NumComponents); c++ {
			v := r.Components[c]
			if core.Component(c) == core.CompTargetExec {
				v = r.TargetExecExclusive()
			}
			per := int64(0)
			if r.Count > 0 {
				per = int64(v / r.Count)
			}
			if per == 0 {
				continue
			}
			frac := 0.0
			if mean > 0 {
				frac = float64(per) / float64(mean)
			}
			sec.Bars = append(sec.Bars, Bar{
				Label:  core.Component(c).Name(),
				Detail: fmtNanos(per) + "/call",
				Frac:   frac,
				Class:  "exec",
			})
		}
		m.Sections = append(m.Sections, sec)
	}
	return m
}

// distLine renders a call-count distribution over entities, in entity
// order: "origins: node0/c0:1024 node0/c1:1024".
func distLine(label string, dist map[string]uint64) string {
	keys := make([]string, 0, len(dist))
	size := len(label)
	for k := range dist {
		keys = append(keys, k)
		size += len(k) + 22 // " key:" and up to 20 digits
	}
	slices.Sort(keys)
	line := append(make([]byte, 0, size), label...)
	for _, k := range keys {
		line = append(append(append(line, ' '), k...), ':')
		line = strconv.AppendUint(line, dist[k], 10)
	}
	return string(line)
}

// FromSystemStats builds the per-entity saturation report (the sym stats
// view) over the shared model.
func FromSystemStats(title string, stats []analysis.EntityStats, incomplete int) *Model {
	m := &Model{Title: title}
	if incomplete > 0 {
		m.Notes = append(m.Notes, fmt.Sprintf(
			"%d requests have incomplete span sets (origin events but no target view)", incomplete))
	}
	t := &Table{Header: []string{
		"entity", "events", "dropped", "blocked max/mean", "runnable max/mean",
		"ofi max/mean", "ofi@cap", "cq max", "batch ops/flushes",
	}}
	sorted := make([]analysis.EntityStats, len(stats))
	copy(sorted, stats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Entity < sorted[j].Entity })
	for i := range sorted {
		s := &sorted[i]
		t.Rows = append(t.Rows, []string{
			s.Entity,
			fmt.Sprint(s.Events),
			fmt.Sprint(s.Dropped),
			fmt.Sprintf("%d/%.1f", s.MaxBlocked, s.MeanBlocked),
			fmt.Sprintf("%d/%.1f", s.MaxRunnable, s.MeanRunnable),
			fmt.Sprintf("%d/%.1f", s.MaxOFIRead, s.MeanOFIRead),
			fmt.Sprint(s.OFIAtCap),
			fmt.Sprint(s.MaxCQ),
			fmt.Sprintf("%d/%d", s.BatchedOps, s.BatchFlushes),
		})
	}
	m.Sections = append(m.Sections, Section{Title: "Entities", Table: t})
	return m
}

func absNanos(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// fmtNanos renders a nanosecond count as a rounded duration.
func fmtNanos(ns int64) string { return fmtDur(time.Duration(ns)) }

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second || d <= -time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond || d <= -time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
