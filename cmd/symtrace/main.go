// Command symtrace is the SYMBIOSYS trace analysis tool (paper §V-A3):
// it ingests per-process trace dumps (binary <entity>.trace.bin files;
// file arguments are read as dumps whatever their names) or
// human-readable *.trace.jsonl streams, groups events into distributed
// requests by request ID and Lamport order, and renders per-request views (span listing, ASCII Gantt, Zipkin export,
// critical path) or whole-run views (request summary, dominant-path
// flame report). The diff subcommand aligns two runs' critical paths by
// shape and localizes regressions to a path segment.
//
// Usage:
//
//	symtrace -dir dumps/                          # summary of all requests
//	symtrace -dir dumps/ -flame [-o cli|tui|html] # dominant-path report
//	symtrace -dir dumps/ -req 0x100000001 -path   # one request, critical path
//	symtrace -dir dumps/ -req 0x100000001 -zipkin out.json
//	symtrace diff -before cleanDumps/ -after chaosDumps/ -o cli
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		runDiff(os.Args[2:])
		return
	}

	dir := flag.String("dir", "", "directory holding *.trace.bin dumps (binary trace dump format)")
	jsonl := flag.String("jsonl", "", "directory holding *.trace.jsonl streams (JSONL sink output)")
	reqStr := flag.String("req", "", "request ID to inspect (hex with 0x, or decimal)")
	zipkin := flag.String("zipkin", "", "write the selected request as Zipkin v2 JSON to this file")
	gantt := flag.Bool("gantt", false, "render the selected request as an ASCII Gantt chart")
	path := flag.Bool("path", false, "print the selected request's critical path")
	flame := flag.Bool("flame", false, "render the whole-run dominant-path report")
	mode := flag.String("o", "cli", "report output mode: cli, tui, or html")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	maxList := flag.Int("n", 10, "number of requests/path shapes to list")
	flag.Parse()

	ts, warnings, err := ingest(*dir, *jsonl, flag.Args())
	if err != nil {
		fatal(err)
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "symtrace: warning:", w)
	}

	if *flame {
		m, err := report.ParseMode(*mode)
		if err != nil {
			fatal(err)
		}
		f := analysis.BuildFlame(ts)
		model := report.FromFlame("SYMBIOSYS dominant critical paths", f, *maxList)
		model.Generated = time.Now().Format(time.RFC3339)
		model.Notes = append(warnings, model.Notes...)
		if err := emit(model, m, *out); err != nil {
			fatal(err)
		}
		return
	}

	if *reqStr == "" {
		summarize(ts, *maxList)
		return
	}
	reqID, err := parseID(*reqStr)
	if err != nil {
		fatal(err)
	}
	spans := ts.Spans(reqID)
	if len(spans) == 0 {
		fatal(fmt.Errorf("request %#x has no spans", reqID))
	}
	fmt.Printf("\nrequest %#x: %d spans\n", reqID, len(spans))
	for _, s := range spans {
		fmt.Printf("  [%6s] %-28s %-22s start+%-10v dur %v\n",
			s.Kind, s.RPCName, s.Entity,
			time.Duration(s.StartNanos-spans[0].StartNanos), time.Duration(s.DurNanos))
	}
	if *path {
		printPath(reqID, spans)
	}
	if *gantt {
		fmt.Println()
		analysis.RenderGantt(os.Stdout, spans, 64)
	}
	if gaps := analysis.RequestGaps(spans); len(gaps) > 0 {
		fmt.Printf("\nuncovered stretches of the root span (%.1f%% of the request):\n",
			100*analysis.UncoveredFraction(spans))
		for _, g := range gaps {
			fmt.Printf("  after %-28s %v\n", g.After, time.Duration(g.DurNanos).Round(time.Microsecond))
		}
	}
	if *zipkin != "" {
		f, err := os.Create(*zipkin)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := ts.WriteZipkin(f, reqID); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Zipkin v2 trace to %s\n", *zipkin)
	}
}

// runDiff implements `symtrace diff`: extract both runs' critical
// paths, align by shape, and report the per-segment deltas.
func runDiff(argv []string) {
	fs := flag.NewFlagSet("symtrace diff", flag.ExitOnError)
	before := fs.String("before", "", "baseline run: directory holding *.trace.bin dumps")
	after := fs.String("after", "", "comparison run: directory holding *.trace.bin dumps")
	beforeJSONL := fs.String("before-jsonl", "", "baseline run: directory holding *.trace.jsonl streams")
	afterJSONL := fs.String("after-jsonl", "", "comparison run: directory holding *.trace.jsonl streams")
	mode := fs.String("o", "cli", "report output mode: cli, tui, or html")
	out := fs.String("out", "", "write the report to this file instead of stdout")
	top := fs.Int("n", 10, "number of path shapes to report")
	fs.Parse(argv)

	if (*before == "" && *beforeJSONL == "") || (*after == "" && *afterJSONL == "") {
		fmt.Fprintln(os.Stderr, "symtrace diff: need -before and -after dump directories; see -h")
		os.Exit(2)
	}
	m, err := report.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	tsB, warnB, err := ingest(*before, *beforeJSONL, nil)
	if err != nil {
		fatal(fmt.Errorf("before run: %w", err))
	}
	tsA, warnA, err := ingest(*after, *afterJSONL, nil)
	if err != nil {
		fatal(fmt.Errorf("after run: %w", err))
	}
	var notes []string
	for _, w := range warnB {
		notes = append(notes, "before run: "+w)
	}
	for _, w := range warnA {
		notes = append(notes, "after run: "+w)
	}

	d := analysis.DiffFlames(analysis.BuildFlame(tsB), analysis.BuildFlame(tsA))
	model := report.FromFlameDiff("SYMBIOSYS critical-path diff", d, *top)
	model.Generated = time.Now().Format(time.RFC3339)
	model.Notes = append(notes, model.Notes...)
	if err := emit(model, m, *out); err != nil {
		fatal(err)
	}
}

// ingest loads trace dumps (binary snapshots and/or JSONL streams) into
// one merged trace set, returning run-quality warnings (drops,
// truncated streams) rather than printing them, so reports embed them.
func ingest(dir, jsonlDir string, extra []string) (*analysis.TraceSet, []string, error) {
	var dumps []*core.TraceDump
	for _, path := range extra {
		d, err := experiments.ReadTraceDump(path)
		if err != nil {
			return nil, nil, err
		}
		dumps = append(dumps, d)
	}
	if dir != "" {
		ds, err := experiments.ReadTraceDumps(dir)
		if err != nil {
			return nil, nil, err
		}
		dumps = append(dumps, ds...)
	}
	var streams []string
	if jsonlDir != "" {
		matches, err := filepath.Glob(filepath.Join(jsonlDir, "*.trace.jsonl"))
		if err != nil {
			return nil, nil, err
		}
		streams = matches
	}
	if len(dumps) == 0 && len(streams) == 0 {
		return nil, nil, fmt.Errorf("no trace dumps given; see -h")
	}
	// JSONL streams are the streaming-sink export: events only, no drop
	// counter (the sink observes every event). A truncated final line —
	// a stream cut off mid-write by SIGINT or a crash — is tolerated
	// and surfaced as a warning instead of aborting the whole analysis.
	var warnings []string
	truncatedStreams := 0
	for _, path := range streams {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		evs, truncated, err := core.ReadEventsJSONL(f)
		f.Close()
		if errors.Is(err, core.ErrTraceStreamVersion) {
			return nil, nil, fmt.Errorf("%s is not a version 2 trace stream: re-export it with this build (core.NewJSONLTraceSink), older and newer streams are not read", path)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if truncated > 0 {
			truncatedStreams++
			warnings = append(warnings, fmt.Sprintf(
				"%s: discarded truncated final line (stream cut off mid-write); %d events kept",
				path, len(evs)))
		}
		name := strings.TrimSuffix(filepath.Base(path), ".trace.jsonl")
		dumps = append(dumps, &core.TraceDump{Entity: name, Events: evs})
	}
	ts := analysis.MergeTraces(dumps)
	fmt.Fprintf(os.Stderr, "ingested %d events from %d process dump(s), %d dropped\n",
		len(ts.Events), len(dumps), ts.Dropped)
	if ts.Dropped > 0 {
		warnings = append(warnings, fmt.Sprintf("%d trace events dropped at the capacity bound", ts.Dropped))
	}
	if inc := ts.IncompleteRequests(); inc > 0 {
		warnings = append(warnings, fmt.Sprintf(
			"%d requests have incomplete span sets (origin events but no target view)", inc))
	}
	return ts, warnings, nil
}

// emit renders the model to stdout or -out.
func emit(m *report.Model, mode report.Mode, out string) error {
	if out == "" {
		return report.Render(os.Stdout, mode, m)
	}
	if err := report.WriteFile(out, mode, m); err != nil {
		return err
	}
	fmt.Printf("wrote %s report to %s\n", mode, out)
	return nil
}

// printPath renders one request's critical path with per-segment
// attribution.
func printPath(reqID uint64, spans []analysis.Span) {
	p := analysis.PathFromSpans(reqID, spans)
	if p == nil {
		fmt.Println("\nno critical path (no complete spans)")
		return
	}
	fmt.Printf("\ncritical path: %v total, %d segments, %d attempt(s)",
		time.Duration(p.TotalNanos), len(p.Segments), p.Attempts)
	if p.Batched {
		fmt.Print(", batched")
	}
	if p.Failed {
		fmt.Print(", FAILED")
	}
	if p.Incomplete {
		fmt.Print(", INCOMPLETE")
	}
	fmt.Println()
	dom := p.DominantSegment()
	for i, s := range p.Segments {
		mark := " "
		if i == dom {
			mark = "*"
		}
		fmt.Printf("  %s d%d %-14s %-28s %-22s %v\n",
			mark, s.Depth, s.Kind, s.RPC, s.Entity, time.Duration(s.DurNanos))
	}
}

// summarize lists the largest requests by span count.
func summarize(ts *analysis.TraceSet, n int) {
	reqs := ts.Requests()
	type row struct {
		id    uint64
		evs   int
		spans int
	}
	rows := make([]row, 0, len(reqs))
	for id, evs := range reqs {
		rows = append(rows, row{id: id, evs: len(evs), spans: len(analysis.SpansOf(id, evs))})
	}
	// Largest requests first.
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].spans > rows[i].spans {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	fmt.Printf("\n%d distributed requests; largest %d:\n", len(rows), min(n, len(rows)))
	for i := 0; i < len(rows) && i < n; i++ {
		fmt.Printf("  request %#016x: %3d events, %3d spans\n",
			rows[i].id, rows[i].evs, rows[i].spans)
	}
	if inc := ts.IncompleteRequests(); inc > 0 {
		fmt.Printf("incomplete_requests: %d (origin events but no target view)\n", inc)
	}
}

func parseID(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symtrace:", err)
	os.Exit(1)
}
