package analysis

import (
	"sort"
)

// Run diffing over critical paths: align two runs' flames by path
// shape and report per-segment deltas. Where a callpath's mean says
// "this RPC got slower", the path diff says "it got slower because the
// queue segment of hop 2 grew", localizing a regression to a segment
// without manual trace inspection.

// Significance thresholds (documented in DESIGN.md §10): a segment
// delta is flagged when both sides have at least sigMinCount samples
// and either the mean moved by more than sigRatio in ratio terms or the
// absolute delta exceeds sigShareOfPath of the before run's whole-path
// mean. The count floor suppresses single-sample noise; the share floor
// suppresses large ratios on segments too small to matter.
const (
	sigMinCount    = 5
	sigRatioHigh   = 1.4
	sigRatioLow    = 1.0 / sigRatioHigh
	sigShareOfPath = 0.10
)

// SegmentDelta is one aligned segment position's movement between runs.
type SegmentDelta struct {
	Kind  SegKind
	RPC   string
	Depth int

	MeanBefore, MeanAfter int64 // nanoseconds per request
	// DeltaNanos = MeanAfter - MeanBefore; Ratio = after/before
	// (0 when before is empty).
	DeltaNanos int64
	Ratio      float64
	// Significant marks deltas passing the thresholds above.
	Significant bool
}

// PathDelta is one path shape's movement between runs.
type PathDelta struct {
	Shape string
	// Segments aligns position-by-position; identical shapes guarantee
	// identical segment sequences.
	Segments []SegmentDelta

	CountBefore, CountAfter uint64
	MeanBefore, MeanAfter   int64 // whole-path nanoseconds per request
	DeltaNanos              int64
	Ratio                   float64

	// New / Gone mark shapes present in only one run — e.g. a retry
	// chain (backoff segments) that only exists under fault injection.
	New  bool
	Gone bool
}

// FlameDiff is the full two-run comparison.
type FlameDiff struct {
	Before, After PathStats
	Paths         []PathDelta
}

// DiffFlames aligns two runs' dominant-path summaries by shape. Shapes
// present in both runs diff segment-by-segment; shapes unique to one
// run surface as New/Gone (structural changes — new retry chains, a
// vanished batch window). Ordered by |whole-path delta| weighted by
// after-run count, structural changes first.
func DiffFlames(before, after *Flame) *FlameDiff {
	out := &FlameDiff{Before: before.Stats, After: after.Stats}

	byShapeB := make(map[string]*FlamePath, len(before.Paths))
	for i := range before.Paths {
		byShapeB[before.Paths[i].Shape] = &before.Paths[i]
	}
	byShapeA := make(map[string]*FlamePath, len(after.Paths))
	for i := range after.Paths {
		byShapeA[after.Paths[i].Shape] = &after.Paths[i]
	}

	seen := make(map[string]bool)
	add := func(shape string) {
		if seen[shape] {
			return
		}
		seen[shape] = true
		b, hasB := byShapeB[shape]
		a, hasA := byShapeA[shape]
		d := PathDelta{Shape: shape, New: !hasB, Gone: !hasA}
		if hasB {
			d.CountBefore, d.MeanBefore = b.Count, b.MeanNanos()
		}
		if hasA {
			d.CountAfter, d.MeanAfter = a.Count, a.MeanNanos()
		}
		d.DeltaNanos = d.MeanAfter - d.MeanBefore
		if hasB && hasA {
			if d.MeanBefore > 0 {
				d.Ratio = float64(d.MeanAfter) / float64(d.MeanBefore)
			}
			d.Segments = diffSegments(b, a)
		}
		out.Paths = append(out.Paths, d)
	}
	for i := range before.Paths {
		add(before.Paths[i].Shape)
	}
	for i := range after.Paths {
		add(after.Paths[i].Shape)
	}

	sort.SliceStable(out.Paths, func(i, j int) bool {
		pi, pj := &out.Paths[i], &out.Paths[j]
		si, sj := pi.New || pi.Gone, pj.New || pj.Gone
		if si != sj {
			return si
		}
		wi := weightedAbsDelta(pi)
		wj := weightedAbsDelta(pj)
		if wi != wj {
			return wi > wj
		}
		return pi.Shape < pj.Shape
	})
	return out
}

// weightedAbsDelta ranks a shape's movement by |mean delta| × requests
// affected (after-run count, or before-run for Gone shapes) — a small
// per-request regression on a hot shape outranks a large one on a cold
// shape.
func weightedAbsDelta(d *PathDelta) int64 {
	v := d.DeltaNanos
	if v < 0 {
		v = -v
	}
	n := d.CountAfter
	if d.Gone {
		n = d.CountBefore
	}
	if n == 0 {
		n = 1
	}
	return v * int64(n)
}

func diffSegments(b, a *FlamePath) []SegmentDelta {
	n := len(b.Segments)
	if len(a.Segments) < n {
		n = len(a.Segments) // same shape ⇒ same length; guard anyway
	}
	segs := make([]SegmentDelta, n)
	pathMeanB := b.MeanNanos()
	for i := 0; i < n; i++ {
		sb, sa := &b.Segments[i], &a.Segments[i]
		d := SegmentDelta{Kind: sb.Kind, RPC: sb.RPC, Depth: sb.Depth}
		if sb.Stats.Count > 0 {
			d.MeanBefore = int64(sb.Stats.CumNanos / sb.Stats.Count)
		}
		if sa.Stats.Count > 0 {
			d.MeanAfter = int64(sa.Stats.CumNanos / sa.Stats.Count)
		}
		d.DeltaNanos = d.MeanAfter - d.MeanBefore
		if d.MeanBefore > 0 {
			d.Ratio = float64(d.MeanAfter) / float64(d.MeanBefore)
		}
		d.Significant = significant(&d, sb.Stats.Count, sa.Stats.Count, pathMeanB)
		segs[i] = d
	}
	return segs
}

func significant(d *SegmentDelta, countB, countA uint64, pathMeanB int64) bool {
	if countB < sigMinCount || countA < sigMinCount {
		return false
	}
	moved := d.MeanBefore > 0 && (d.Ratio > sigRatioHigh || d.Ratio < sigRatioLow)
	abs := d.DeltaNanos
	if abs < 0 {
		abs = -abs
	}
	big := pathMeanB > 0 && float64(abs) > sigShareOfPath*float64(pathMeanB)
	return moved || big
}
