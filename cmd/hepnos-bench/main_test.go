package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"symbiosys/internal/analysis"
	"symbiosys/internal/experiments"
)

// hepnosBench runs one command line in-process and returns its stdout, failing
// the test unless it exits with want.
func hepnosBench(t *testing.T, want int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != want {
		t.Fatalf("hepnos-bench %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), code, want, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func TestBadCommandLinesExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "storm"},
		{"-config", "C9"},
		{"-run", "chaos", "-config", "C9"},
		{"-figure", "8"},
		{"-bogus"},
		{"C1"},
	} {
		if out := hepnosBench(t, 2, args...); out != "" {
			t.Errorf("hepnos-bench %s printed before refusing:\n%s", strings.Join(args, " "), out)
		}
	}
}

func TestElasticRunPassesItsAudit(t *testing.T) {
	out := hepnosBench(t, 0, "-run", "elastic")
	for _, want := range []string{"=== elastic scale-out 4 -> 16 -> 8 nodes", "steady-start", "scale-in",
		"sdskv_migrate_* trace spans", "run elastic: ", "graceful drain completed", "audit: 0 acked-then-lost ops"} {
		if !strings.Contains(out, want) {
			t.Errorf("-run elastic does not print %q:\n%s", want, out)
		}
	}
}

// TestConfigPrintsRowsAndWritesDumps: with -out, a configuration run
// prints its figure rows and leaves in D/<run> the dumps sym reads.
func TestConfigPrintsRowsAndWritesDumps(t *testing.T) {
	dir := t.TempDir()
	out := hepnosBench(t, 0, "-config", "C7", "-scale", "64", "-out", dir)
	for _, want := range []string{"=== C7 ", "(Fig 9 bar)", "(Fig 10 scatter)", "(Fig 11 bar)", "(Fig 12 series)",
		"dumps: 6 profile and 6 trace dumps in " + filepath.Join(dir, "C7"), "audit: 0 acked-then-lost ops"} {
		if !strings.Contains(out, want) {
			t.Errorf("-config C7 -out does not print %q:\n%s", want, out)
		}
	}
	profiles, traces, warnings, err := experiments.ReadDumps(filepath.Join(dir, "C7"))
	if err != nil || len(warnings) != 0 {
		t.Fatalf("ReadDumps: %v %v", warnings, err)
	}
	if len(profiles) != 6 || len(traces) != 6 {
		t.Fatalf("read %d profile and %d trace dumps, want 6 each", len(profiles), len(traces))
	}
	rows := analysis.Merge(profiles).DominantCallpaths(1)
	if len(rows) == 0 || rows[0].Name != "sdskv_put_packed_rpc" {
		t.Fatalf("the dumps' dominant callpath is %v, want sdskv_put_packed_rpc", rows)
	}
	if analysis.MergeTraces(traces).NumEvents() == 0 {
		t.Fatal("the trace dumps hold no events")
	}
}
