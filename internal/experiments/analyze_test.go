package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
)

// TestAnalyzeSmoke is the `make analyze-smoke` target: the from-run-to-
// report pipeline end to end. A small chaos campaign (clean baseline +
// faulted run) emits its reports automatically; the dominant-path
// report must carry a non-empty dominant path, and the same trace set
// must render in all three output modes — and, written to dump files
// and read back, must yield the same flame and the same report text.
func TestAnalyzeSmoke(t *testing.T) {
	dir := t.TempDir()
	base := scaled(C2, 32)
	base.TotalClients = 2
	base.ClientsPerNode = 2
	base.BatchSize = 8

	res, err := RunChaos(ChaosConfig{
		Base:         base,
		DropProb:     0.02,
		DelayProb:    0.2,
		Delay:        5 * time.Millisecond,
		Seed:         7,
		CompareClean: true,
		Report:       ReportConfig{Dir: dir, Mode: "cli"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReportPaths) != 2 {
		t.Fatalf("report paths = %v, want flame + diff", res.ReportPaths)
	}

	flamePath := filepath.Join(dir, "chaos-flame.txt")
	flameTxt, err := os.ReadFile(flamePath)
	if err != nil {
		t.Fatal(err)
	}
	// Non-empty dominant path: the top shape section renders with at
	// least one attributed segment bar.
	if !strings.Contains(string(flameTxt), "#1 ") {
		t.Fatalf("flame report has no dominant path:\n%s", flameTxt)
	}
	if !strings.Contains(string(flameTxt), ".exec") {
		t.Fatalf("flame report has no exec segment:\n%s", flameTxt)
	}

	diffTxt, err := os.ReadFile(filepath.Join(dir, "chaos-diff.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The clean-vs-chaos diff must localize the injected faults: retry
	// chains appear as structural NEW shapes carrying backoff or
	// unmatched segments, or drift shows a dominant regression verdict.
	diffStr := string(diffTxt)
	if !strings.Contains(diffStr, "backoff") && !strings.Contains(diffStr, "unmatched") &&
		!strings.Contains(diffStr, "dominant regression") {
		t.Fatalf("diff report does not localize the fault:\n%s", diffStr)
	}

	// All three renderers over the faulted run's report model.
	_, _, traces, err := runHEPnOSInternal(base)
	if err != nil {
		t.Fatal(err)
	}
	// In file name order, the order the dumps come back from disk in.
	sort.Slice(traces, func(i, j int) bool { return sanitize(traces[i].Entity) < sanitize(traces[j].Entity) })
	f := analysis.BuildFlame(analysis.MergeTraces(traces))
	if len(f.Paths) == 0 {
		t.Fatal("no path shapes extracted from smoke run")
	}
	model := report.FromFlame("analyze smoke", f, 5)
	model.Generated = "smoke"

	// The same run through the files the offline tools read: written
	// with WriteDumps, read back with ReadDumps, the way sym does. The
	// trace dump format must carry everything the analysis uses, so the
	// flame and its rendered text come out identical.
	dumpDir := filepath.Join(dir, "dumps")
	if err := WriteDumps(dumpDir, nil, traces); err != nil {
		t.Fatal(err)
	}
	_, fromDisk, _, err := ReadDumps(dumpDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDisk) != len(traces) {
		t.Fatalf("read %d trace dumps back, wrote %d", len(fromDisk), len(traces))
	}
	if !reflect.DeepEqual(fromDisk, traces) {
		t.Fatal("trace dumps changed on their way through the files")
	}
	diskFlame := analysis.BuildFlame(analysis.MergeTraces(fromDisk))
	if !reflect.DeepEqual(diskFlame, f) {
		t.Fatal("flame built from the dump files differs from the in-memory one")
	}
	diskModel := report.FromFlame("analyze smoke", diskFlame, 5)
	diskModel.Generated = "smoke"
	var memTxt, diskTxt bytes.Buffer
	if err := report.WriteCLI(&memTxt, model); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteCLI(&diskTxt, diskModel); err != nil {
		t.Fatal(err)
	}
	if memTxt.String() != diskTxt.String() {
		t.Fatalf("report from the dump files differs:\n%s\nin memory:\n%s", diskTxt.String(), memTxt.String())
	}
	for _, mode := range []report.Mode{report.ModeCLI, report.ModeTUI, report.ModeHTML} {
		var buf bytes.Buffer
		if err := report.Render(&buf, mode, model); err != nil {
			t.Fatalf("%v render: %v", mode, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%v render produced no output", mode)
		}
		if !strings.Contains(buf.String(), "analyze smoke") {
			t.Fatalf("%v render missing title", mode)
		}
	}
}

// TestBatchSweepReports exercises the sweep's automatic reporting: the
// per-window flames plus the lo-vs-hi diff land on disk, and the large
// window's paths are marked batched (the batch_window segment is the
// C4 effect per request).
func TestBatchSweepReports(t *testing.T) {
	dir := t.TempDir()
	res, err := RunBatchSweep(BatchSweepConfig{
		Windows:      []int{1, 8},
		Issuers:      2,
		OpsPerIssuer: 64,
		Report:       ReportConfig{Dir: dir, Mode: "cli"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReportPaths) != 3 {
		t.Fatalf("report paths = %v, want w1 + w8 + diff", res.ReportPaths)
	}
	w8, err := os.ReadFile(filepath.Join(dir, "batchsweep-w8.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(w8), "#1 ") {
		t.Fatalf("window-8 report has no dominant path:\n%s", w8)
	}
}

// TestReadDumpsRefusesOldFormats: a trace stream or trace dump of an
// earlier format version in a run directory is refused, not misread,
// with a message that names the file and the versions.
func TestReadDumpsRefusesOldFormats(t *testing.T) {
	for _, tc := range []struct{ file, data, want string }{
		{"n0_cli.trace.jsonl", `{"symbiosys_trace":2,"t0":5,"keys":{}}` + "\n" + `{"s":1,"v":"e"}` + "\n" + `{"i":1,"e":1}` + "\n",
			"is not version 3: it says version 2; re-export it"},
		{"n0_cli.trace.bin", "SYTD\x01\x07\x00\x01\x01e\x01\x00\x00\x00\x01\x01\x01\x00\x00\x00\x00",
			"trace dump version 1 is not read by this build, which reads version 2 only"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := ReadDumps(dir)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), tc.file) {
			t.Errorf("%s: ReadDumps error %v, want one naming the file and saying %q", tc.file, err, tc.want)
		}
	}
}
