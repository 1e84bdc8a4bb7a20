package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// RenderGantt draws one request's spans as an ASCII Gantt chart — a
// terminal rendition of the paper's Figure 5 visualization. width is
// the chart area in columns (default 64).
func RenderGantt(w io.Writer, spans []Span, width int) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	if width <= 0 {
		width = 64
	}
	start := spans[0].StartNanos
	end := start
	for _, s := range spans {
		if s.StartNanos < start {
			start = s.StartNanos
		}
		if e := s.StartNanos + s.DurNanos; e > end {
			end = e
		}
	}
	total := end - start
	if total <= 0 {
		total = 1
	}
	scale := func(ns int64) int {
		c := int(ns * int64(width) / total)
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}

	labelW := 0
	for _, s := range spans {
		if n := len(s.RPCName) + s.Breadcrumb.Depth()*2; n > labelW {
			labelW = n
		}
	}

	fmt.Fprintf(w, "request %#x — %d spans over %v\n",
		spans[0].RequestID, len(spans), time.Duration(total))
	for _, s := range spans {
		indent := strings.Repeat("  ", max(s.Breadcrumb.Depth()-1, 0))
		label := indent + s.RPCName
		lo := scale(s.StartNanos - start)
		hi := scale(s.StartNanos - start + s.DurNanos)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat(barChar(s.Kind), hi-lo)
		fmt.Fprintf(w, "  %-*s |%-*s| %v\n",
			labelW, label, width, bar, time.Duration(s.DurNanos).Round(time.Microsecond))
	}
}

func barChar(kind string) string {
	if kind == "CLIENT" {
		return "░"
	}
	return "█"
}

// Gap is a stretch of a request's root span not covered by any nested
// server span — client-side waiting, network transit, and queueing: the
// per-request view of the paper's "unaccounted" time.
type Gap struct {
	StartNanos int64
	DurNanos   int64
	// After names the span that finished immediately before the gap
	// ("(start)" for a gap at the beginning of the request).
	After string
}

// RequestGaps computes the uncovered stretches of the root span.
// Spans must come from Spans (or EachRequest) for one request.
func RequestGaps(spans []Span) []Gap {
	if len(spans) == 0 {
		return nil
	}
	// Root = earliest client span.
	root := spans[0]
	for _, s := range spans {
		if s.Kind == "CLIENT" && s.StartNanos < root.StartNanos {
			root = s
		}
	}
	// Collect covered intervals from server spans nested under root.
	type iv struct {
		lo, hi int64
		name   string
	}
	var covered []iv
	for _, s := range spans {
		if s.Kind != "SERVER" {
			continue
		}
		covered = append(covered, iv{s.StartNanos, s.StartNanos + s.DurNanos, s.RPCName})
	}
	sort.Slice(covered, func(i, j int) bool { return covered[i].lo < covered[j].lo })

	var gaps []Gap
	cursor := root.StartNanos
	lastName := "(start)"
	rootEnd := root.StartNanos + root.DurNanos
	for _, c := range covered {
		if c.lo > cursor {
			gaps = append(gaps, Gap{StartNanos: cursor, DurNanos: c.lo - cursor, After: lastName})
		}
		if c.hi > cursor {
			cursor = c.hi
		}
		lastName = c.name
	}
	if rootEnd > cursor {
		gaps = append(gaps, Gap{StartNanos: cursor, DurNanos: rootEnd - cursor, After: lastName})
	}
	return gaps
}

// UncoveredFraction reports the share of the root span not covered by
// nested server execution.
func UncoveredFraction(spans []Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	root := spans[0]
	for _, s := range spans {
		if s.Kind == "CLIENT" && s.StartNanos < root.StartNanos {
			root = s
		}
	}
	if root.DurNanos == 0 {
		return 0
	}
	var gapTotal int64
	for _, g := range RequestGaps(spans) {
		gapTotal += g.DurNanos
	}
	return float64(gapTotal) / float64(root.DurNanos)
}
