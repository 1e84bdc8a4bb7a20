// Command symstats is the SYMBIOSYS system statistics summary tool: it
// ingests per-process trace dumps (the binary <entity>.trace.bin files
// experiments.WriteDumps and hepnos-bench -out write) and reports the
// resource-saturation view — pool runnable/blocked extremes, OFI
// events-read behaviour against the configured threshold,
// completion-queue extremes, and the realized batching view (coalesced
// ops per vectored flush, from the batch IDs stamped on origin-end
// events). It also prints the PVAR
// class table (paper Table I) and the list of PVARs a Mercury instance
// exports (paper Table II) — including the num_batches_* counters.
//
// Usage:
//
//	symstats -dir dumps/ [-cap 16]
//	symstats -classes
//	symstats -pvars
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
	"symbiosys/internal/experiments"
	"symbiosys/internal/mercury"
	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/na"
)

func main() {
	dir := flag.String("dir", "", "directory holding *.trace.bin dumps (binary trace dump format)")
	capEvents := flag.Uint64("cap", 16, "OFI_max_events threshold for at-cap counting")
	classes := flag.Bool("classes", false, "print the PVAR class table (paper Table I)")
	pvars := flag.Bool("pvars", false, "print the PVARs a Mercury instance exports (paper Table II)")
	mode := flag.String("o", "cli", "output mode: cli, tui, or html")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	flag.Parse()

	switch {
	case *classes:
		printClasses()
	case *pvars:
		printPVars()
	case *dir != "":
		printStats(*dir, *capEvents, *mode, *out)
	default:
		fmt.Fprintln(os.Stderr, "symstats: pass -dir, -classes, or -pvars; see -h")
		os.Exit(2)
	}
}

func printClasses() {
	fmt.Println("PVAR classes (paper Table I):")
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
		fmt.Printf("  %-14s %s\n", r.c, r.desc)
	}
}

func printPVars() {
	// Instantiate a throwaway Mercury class to query its registry the
	// way an external tool would: session, query, finalize.
	fabric := na.NewFabric(na.DefaultConfig())
	ep, err := fabric.NewEndpoint("local", "symstats")
	if err != nil {
		fatal(err)
	}
	hg := mercury.NewClass(ep, mercury.Config{})
	session := hg.PVars().InitSession()
	defer session.Finalize()
	infos, err := session.Query()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("PVARs exported by a Mercury instance (paper Table II): %d variables\n", len(infos))
	for _, info := range infos {
		fmt.Printf("  %-34s %-14s %-10s %s\n",
			info.Name, info.Class, info.Binding, info.Description)
	}
}

func printStats(dir string, capEvents uint64, mode, out string) {
	dumps, err := experiments.ReadTraceDumps(dir)
	if err != nil {
		fatal(err)
	}
	if len(dumps) == 0 {
		fatal(fmt.Errorf("no *%s dumps in %s", experiments.TraceDumpSuffix, dir))
	}
	ts := analysis.MergeTraces(dumps)
	stats := analysis.SystemStats(ts, capEvents)
	incomplete := ts.IncompleteRequests()
	rm, err := report.ParseMode(mode)
	if err != nil {
		fatal(err)
	}
	model := report.FromSystemStats("SYMBIOSYS system statistics", stats, incomplete)
	model.Generated = time.Now().Format(time.RFC3339)
	if ts.Dropped > 0 {
		model.Notes = append(model.Notes, fmt.Sprintf(
			"%d trace events dropped at the capacity bound; the summary undercounts. "+
				"A streaming JSONL sink (margo Options.TraceSinks) sees every event, also those the buffer drops",
			ts.Dropped))
	}
	if out == "" {
		if err := report.Render(os.Stdout, rm, model); err != nil {
			fatal(err)
		}
		return
	}
	if err := report.WriteFile(out, rm, model); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s report to %s\n", rm, out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symstats:", err)
	os.Exit(1)
}
