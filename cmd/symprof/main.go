// Command symprof is the SYMBIOSYS profile summary tool (paper §V-A2):
// it ingests the per-process profile dumps of a run, performs the global
// merge, and prints the dominant callpaths by cumulative end-to-end
// request latency with their per-step breakdowns and per-entity call
// distributions — the report behind the paper's Figure 6.
//
// With -diff it instead compares two runs' profiles and reports
// structural anomalies (new/vanished callpaths) and the biggest
// per-callpath latency movements — the request-flow comparison used to
// diagnose configuration changes.
//
// Usage:
//
//	symprof [-top N] profile1.json profile2.json ...
//	symprof [-top N] -dir dumps/ [-o cli|tui|html] [-out report.html]
//	symprof [-top N] -diff before-dumps/ -dir after-dumps/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
	"symbiosys/internal/core"
)

func main() {
	top := flag.Int("top", 5, "number of dominant callpaths to print")
	dir := flag.String("dir", "", "directory holding *.profile.json dumps")
	diff := flag.String("diff", "", "compare against this baseline dump directory")
	mode := flag.String("o", "cli", "output mode: cli, tui, or html")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	flag.Parse()

	files := flag.Args()
	if *dir != "" {
		matches, err := filepath.Glob(filepath.Join(*dir, "*.profile.json"))
		if err != nil {
			fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "symprof: no profile dumps given; see -h")
		os.Exit(2)
	}

	var dumps []*core.ProfileDump
	for _, f := range files {
		d, err := readProfile(f)
		if err != nil {
			fatal(err)
		}
		dumps = append(dumps, d)
	}
	merged := analysis.Merge(dumps)
	fmt.Printf("ingested %d profiles from %d file(s)\n",
		len(dumps), len(files))

	if *diff != "" {
		baseline, err := loadDir(*diff)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("baseline: %d profiles from %s\n", len(baseline), *diff)
		deltas := analysis.CompareProfiles(analysis.Merge(baseline), merged)
		analysis.RenderDiff(os.Stdout, deltas, *top)
		return
	}
	rm, err := report.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	model := report.FromProfile("SYMBIOSYS dominant callpaths", merged, *top)
	model.Generated = time.Now().Format(time.RFC3339)
	if *out == "" {
		if err := report.Render(os.Stdout, rm, model); err != nil {
			fatal(err)
		}
		return
	}
	if err := report.WriteFile(*out, rm, model); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s report to %s\n", rm, *out)
}

// loadDir reads every profile dump in a directory.
func loadDir(dir string) ([]*core.ProfileDump, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.profile.json"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no *.profile.json dumps in %s", dir)
	}
	var dumps []*core.ProfileDump
	for _, f := range matches {
		d, err := readProfile(f)
		if err != nil {
			return nil, err
		}
		dumps = append(dumps, d)
	}
	return dumps, nil
}

func readProfile(path string) (*core.ProfileDump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := core.ReadProfile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasSuffix(path, ".json") {
		fmt.Fprintf(os.Stderr, "symprof: warning: %s lacks .json suffix\n", path)
	}
	return d, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symprof:", err)
	os.Exit(1)
}
