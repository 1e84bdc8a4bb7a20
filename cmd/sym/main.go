// Command sym is the SYMBIOSYS analysis tool (paper §V-A2, §V-A3). It
// reads the per-process dumps a run leaves in one directory — the
// <entity>.profile.json and <entity>.trace.bin files hepnos-bench -out
// writes, and <entity>.trace.jsonl streams of JSONL sinks — and answers
// one question per subcommand:
//
//	prof   the dominant callpaths by cumulative latency, with per-step
//	       breakdowns and per-entity call distributions (Figure 6)
//	stats  the resource-saturation view per entity: pool runnable/blocked
//	       extremes, OFI events read against the threshold (-cap),
//	       completion-queue extremes, realized batching; -classes and
//	       -pvars print the PVAR classes and a Mercury instance's PVARs
//	       (Tables I and II) instead
//	trace  the distributed requests: a summary, the dominant critical
//	       paths (-flame), or one request (-req) as spans, critical path
//	       (-path), ASCII Gantt (-gantt) or Zipkin v2 JSON (-zipkin)
//	diff   two runs' critical paths aligned by shape, with the segment
//	       that moved most named per shape
//
// Usage:
//
//	sym prof  -dir dumps/ [-n 5]
//	sym stats -dir dumps/ [-cap 16]
//	sym stats -classes | -pvars
//	sym trace -dir dumps/ [-flame] [-n 10]
//	sym trace -dir dumps/ -req 0x100000001 [-path] [-gantt] [-zipkin f.json]
//	sym diff  -before clean/ -dir faulted/
//
// prof, stats, trace -flame and diff render through analysis/report:
// -o cli|tui|html picks the form, -out a file instead of stdout.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
	"symbiosys/internal/mercury"
	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/na"
)

const usage = `usage: sym prof|stats|trace|diff [flags]; sym <subcommand> -h lists its flags
`

var subcommands = map[string]func(*env, []string) error{
	"prof":  prof,
	"stats": stats,
	"trace": trace,
	"diff":  diff,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one sym command line and returns its exit status: 0, 1
// when the analysis fails, 2 for a command line it cannot run.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "sym: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	e := &env{name: "sym " + args[0], stdout: stdout, stderr: stderr}
	err := sub(e, args[1:])
	var bad usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &bad):
		if bad != "" {
			fmt.Fprintf(stderr, "%s: %s; see -h\n", e.name, bad)
		}
		return 2
	default:
		fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
		return 1
	}
}

// usageError is a command line a subcommand cannot run (exit status 2);
// empty when the flag package has already said why.
type usageError string

func (u usageError) Error() string { return string(u) }

// env is one subcommand's output streams and the flags every subcommand
// shares.
type env struct {
	name           string
	stdout, stderr io.Writer
	dir, out       string
	mode           report.Mode
	n              int
}

// flags starts the subcommand's flag set with the shared flags; n > 0
// also adds -n, the number of rows listed, with that default.
func (e *env) flags(n int) *flag.FlagSet {
	fs := flag.NewFlagSet(e.name, flag.ContinueOnError)
	fs.SetOutput(e.stderr)
	fs.StringVar(&e.dir, "dir", "", "the run's dump directory (*.profile.json, *.trace.bin, *.trace.jsonl)")
	fs.Func("o", "report output `mode`: cli (the default), tui, or html", func(s string) (err error) {
		e.mode, err = report.ParseMode(s)
		return err
	})
	fs.StringVar(&e.out, "out", "", "write the report to this file instead of stdout")
	if n > 0 {
		fs.IntVar(&e.n, "n", n, "number of callpaths, requests or path shapes to list")
	}
	return fs
}

// parse parses the subcommand's flags; the flag package reports a bad
// one itself.
func (e *env) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError("")
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}
	return nil
}

// emit renders a report to stdout or -out.
func (e *env) emit(m *report.Model) error {
	m.Generated = time.Now().Format(time.RFC3339)
	if e.out == "" {
		return report.Render(e.stdout, e.mode, m)
	}
	if err := report.WriteFile(e.out, e.mode, m); err != nil {
		return err
	}
	fmt.Fprintf(e.stdout, "wrote %s report to %s\n", e.mode, e.out)
	return nil
}

// read loads every dump of the run in dir.
func read(dir string) ([]*core.ProfileDump, []*core.TraceDump, []string, error) {
	if dir == "" {
		return nil, nil, nil, usageError("-dir is required")
	}
	return experiments.ReadDumps(dir)
}

// traces merges the run's trace dumps in dir, returning run-quality
// warnings (drops, truncated streams) for the report to carry.
func (e *env) traces(dir string) (*analysis.TraceSet, []string, error) {
	_, dumps, warnings, err := read(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(dumps) == 0 {
		return nil, nil, fmt.Errorf("no trace dumps (*.trace.bin, *.trace.jsonl) in %s", dir)
	}
	ts := analysis.MergeTraces(dumps)
	fmt.Fprintf(e.stderr, "ingested %d events from %d process dump(s) in %s, %d dropped\n",
		ts.NumEvents(), len(dumps), dir, ts.Dropped)
	if ts.Dropped > 0 {
		warnings = append(warnings, fmt.Sprintf(
			"%d trace events dropped at the capacity bound; the summary undercounts. "+
				"A streaming JSONL sink (margo Options.TraceSinks) sees every event, also those the buffer drops",
			ts.Dropped))
	}
	return ts, warnings, nil
}

func prof(e *env, args []string) error {
	if err := e.parse(e.flags(5), args); err != nil {
		return err
	}
	profiles, _, _, err := read(e.dir)
	if err != nil {
		return err
	}
	if len(profiles) == 0 {
		return fmt.Errorf("no profile dumps (*.profile.json) in %s", e.dir)
	}
	fmt.Fprintf(e.stderr, "ingested %d profiles from %s\n", len(profiles), e.dir)
	return e.emit(report.FromProfile("SYMBIOSYS dominant callpaths", analysis.Merge(profiles), e.n))
}

func stats(e *env, args []string) error {
	fs := e.flags(0)
	capEvents := fs.Uint64("cap", 16, "OFI_max_events threshold for at-cap counting")
	classes := fs.Bool("classes", false, "print the PVAR class table (paper Table I)")
	pvars := fs.Bool("pvars", false, "print the PVARs a Mercury instance exports (paper Table II)")
	if err := e.parse(fs, args); err != nil {
		return err
	}
	switch {
	case *classes:
		printClasses(e.stdout)
		return nil
	case *pvars:
		return printPVars(e.stdout)
	}
	ts, warnings, err := e.traces(e.dir)
	if err != nil {
		return err
	}
	m := report.FromSystemStats("SYMBIOSYS system statistics",
		analysis.SystemStats(ts, *capEvents), ts.IncompleteRequests())
	m.Notes = append(m.Notes, warnings...)
	return e.emit(m)
}

func printClasses(w io.Writer) {
	fmt.Fprintln(w, "PVAR classes (paper Table I):")
	rows := []struct {
		c    pvar.Class
		desc string
	}{
		{pvar.ClassState, "Represents any one of a set of discrete states"},
		{pvar.ClassCounter, "Monotonically increasing value"},
		{pvar.ClassTimer, "Interval event timer"},
		{pvar.ClassLevel, "Represents the utilization level of a resource"},
		{pvar.ClassSize, "Represents the size of a resource"},
		{pvar.ClassHighWatermark, "Highest recorded value"},
		{pvar.ClassLowWatermark, "Lowest recorded value"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %s\n", r.c, r.desc)
	}
}

// printPVars queries a throwaway Mercury class's registry the way an
// external tool would: session, query, finalize.
func printPVars(w io.Writer) error {
	ep, err := na.NewFabric(na.DefaultConfig()).NewEndpoint("local", "sym")
	if err != nil {
		return err
	}
	session := mercury.NewClass(ep, mercury.Config{}).PVars().InitSession()
	defer session.Finalize()
	infos, err := session.Query()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "PVARs exported by a Mercury instance (paper Table II): %d variables\n", len(infos))
	for _, info := range infos {
		fmt.Fprintf(w, "  %-34s %-14s %-10s %s\n", info.Name, info.Class, info.Binding, info.Description)
	}
	return nil
}

func trace(e *env, args []string) error {
	fs := e.flags(10)
	reqStr := fs.String("req", "", "request ID to inspect (hex with 0x, or decimal)")
	flame := fs.Bool("flame", false, "render the whole-run dominant-path report")
	path := fs.Bool("path", false, "print the selected request's critical path")
	gantt := fs.Bool("gantt", false, "render the selected request as an ASCII Gantt chart")
	zipkin := fs.String("zipkin", "", "write the selected request as Zipkin v2 JSON to this file")
	if err := e.parse(fs, args); err != nil {
		return err
	}
	var reqID uint64
	if *reqStr != "" {
		id, err := parseID(*reqStr)
		if err != nil {
			return usageError(fmt.Sprintf("-req %q: %v", *reqStr, err))
		}
		reqID = id
	}
	ts, warnings, err := e.traces(e.dir)
	if err != nil {
		return err
	}
	if *flame {
		m := report.FromFlame("SYMBIOSYS dominant critical paths", analysis.BuildFlame(ts), e.n)
		m.Notes = append(warnings, m.Notes...)
		return e.emit(m)
	}
	for _, w := range warnings {
		fmt.Fprintln(e.stderr, e.name+": warning:", w)
	}
	if *reqStr == "" {
		summarize(e.stdout, ts, e.n)
		return nil
	}

	spans := ts.Spans(reqID)
	if len(spans) == 0 {
		return fmt.Errorf("request %#x has no spans", reqID)
	}
	w := e.stdout
	fmt.Fprintf(w, "\nrequest %#x: %d spans\n", reqID, len(spans))
	for _, s := range spans {
		fmt.Fprintf(w, "  [%6s] %-28s %-22s start+%-10v dur %v\n",
			s.Kind, s.RPCName, s.Entity,
			time.Duration(s.StartNanos-spans[0].StartNanos), time.Duration(s.DurNanos))
	}
	if *path {
		printPath(w, reqID, spans)
	}
	if *gantt {
		fmt.Fprintln(w)
		analysis.RenderGantt(w, spans, 64)
	}
	if gaps := analysis.RequestGaps(spans); len(gaps) > 0 {
		fmt.Fprintf(w, "\nuncovered stretches of the root span (%.1f%% of the request):\n",
			100*analysis.UncoveredFraction(spans))
		for _, g := range gaps {
			fmt.Fprintf(w, "  after %-28s %v\n", g.After, time.Duration(g.DurNanos).Round(time.Microsecond))
		}
	}
	if *zipkin != "" {
		f, err := os.Create(*zipkin)
		if err != nil {
			return err
		}
		if err := ts.WriteZipkin(f, reqID); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Zipkin v2 trace to %s\n", *zipkin)
	}
	return nil
}

// printPath renders one request's critical path with per-segment
// attribution, the dominant segment starred.
func printPath(w io.Writer, reqID uint64, spans []analysis.Span) {
	p := analysis.PathFromSpans(reqID, spans)
	if p == nil {
		fmt.Fprintln(w, "\nno critical path (no complete spans)")
		return
	}
	fmt.Fprintf(w, "\ncritical path: %v total, %d segments, %d attempt(s)",
		time.Duration(p.TotalNanos), len(p.Segments), p.Attempts)
	if p.Batched {
		fmt.Fprint(w, ", batched")
	}
	if p.Failed {
		fmt.Fprint(w, ", FAILED")
	}
	if p.Incomplete {
		fmt.Fprint(w, ", INCOMPLETE")
	}
	fmt.Fprintln(w)
	dom := p.DominantSegment()
	for i, s := range p.Segments {
		mark := " "
		if i == dom {
			mark = "*"
		}
		fmt.Fprintf(w, "  %s d%d %-14s %-28s %-22s %v\n",
			mark, s.Depth, s.Kind, s.RPC, s.Entity, time.Duration(s.DurNanos))
	}
}

// summarize lists the n largest requests by span count, ties in request
// ID order.
func summarize(w io.Writer, ts *analysis.TraceSet, n int) {
	type row struct {
		id         uint64
		evs, spans int
	}
	var rows []row
	ts.EachRequest(func(id uint64, evs int, spans []analysis.Span) {
		rows = append(rows, row{id: id, evs: evs, spans: len(spans)})
	})
	requests := len(rows)
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(b.spans, a.spans), cmp.Compare(a.id, b.id))
	})
	rows = rows[:min(n, len(rows))]
	fmt.Fprintf(w, "\n%d distributed requests; largest %d:\n", requests, len(rows))
	for _, r := range rows {
		fmt.Fprintf(w, "  request %#016x: %3d events, %3d spans\n", r.id, r.evs, r.spans)
	}
	if inc := ts.IncompleteRequests(); inc > 0 {
		fmt.Fprintf(w, "incomplete_requests: %d (origin events but no target view)\n", inc)
	}
}

func parseID(s string) (uint64, error) {
	if hex, ok := strings.CutPrefix(strings.ToLower(s), "0x"); ok {
		return strconv.ParseUint(hex, 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

func diff(e *env, args []string) error {
	fs := e.flags(10)
	before := fs.String("before", "", "the baseline run's dump directory; -dir is the run compared with it")
	if err := e.parse(fs, args); err != nil {
		return err
	}
	if *before == "" || e.dir == "" {
		return usageError("-before and -dir are required")
	}
	tsB, warnB, err := e.traces(*before)
	if err != nil {
		return fmt.Errorf("before run: %w", err)
	}
	tsA, warnA, err := e.traces(e.dir)
	if err != nil {
		return fmt.Errorf("after run: %w", err)
	}
	var notes []string
	for _, w := range warnB {
		notes = append(notes, "before run: "+w)
	}
	for _, w := range warnA {
		notes = append(notes, "after run: "+w)
	}
	m := report.FromFlameDiff("SYMBIOSYS critical-path diff",
		analysis.DiffFlames(analysis.BuildFlame(tsB), analysis.BuildFlame(tsA)), e.n)
	m.Notes = append(notes, m.Notes...)
	return e.emit(m)
}
