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
	"symbiosys/internal/core"
)

// renderTop is how many path shapes sym's flame and diff list by
// default.
const renderTop = 10

// readTraces reads one run's trace dumps back from dir, the way sym does.
func readTraces(t *testing.T, dir string) []*core.TraceDump {
	t.Helper()
	_, traces, _, err := ReadDumps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatalf("no trace dumps in %s", dir)
	}
	return traces
}

// cliText renders a report model as sym's default output mode does.
func cliText(t *testing.T, m *report.Model) string {
	t.Helper()
	m.Generated = "smoke"
	var buf bytes.Buffer
	if err := report.WriteCLI(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAnalyzeSmoke is the `make analyze-smoke` target: the from-run-to-
// report pipeline end to end. A small chaos campaign (clean baseline +
// faulted run) writes each run's dumps; rendered from them as sym
// renders them, the faulted run's dominant-path report carries a
// non-empty dominant path, the clean-vs-chaos diff localizes the
// injected fault, and the same trace set renders in all three output
// modes. Read back, the dumps are the run's own and yield the same flame
// and the same report text.
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
	}, "", dir)
	if err != nil {
		t.Fatal(err)
	}
	faulted := readTraces(t, filepath.Join(dir, "chaos-faulted"))
	clean := readTraces(t, filepath.Join(dir, "chaos-clean"))

	f := analysis.BuildFlame(analysis.MergeTraces(faulted))
	if len(f.Paths) == 0 {
		t.Fatal("no path shapes extracted from smoke run")
	}
	flameTxt := cliText(t, report.FromFlame("SYMBIOSYS dominant critical paths", f, renderTop))
	// Non-empty dominant path: the top shape section renders with at
	// least one attributed segment bar.
	if !strings.Contains(flameTxt, "#1 ") {
		t.Fatalf("flame report has no dominant path:\n%s", flameTxt)
	}
	if !strings.Contains(flameTxt, ".exec") {
		t.Fatalf("flame report has no exec segment:\n%s", flameTxt)
	}

	// The clean-vs-chaos diff must localize the injected faults: retry
	// chains appear as structural NEW shapes carrying backoff or
	// unmatched segments, or drift shows a dominant regression verdict.
	diffTxt := cliText(t, report.FromFlameDiff("SYMBIOSYS critical-path diff",
		analysis.DiffFlames(analysis.BuildFlame(analysis.MergeTraces(clean)), f), renderTop))
	if !strings.Contains(diffTxt, "backoff") && !strings.Contains(diffTxt, "unmatched") &&
		!strings.Contains(diffTxt, "dominant regression") {
		t.Fatalf("diff report does not localize the fault:\n%s", diffTxt)
	}

	// The files the offline tools read carry everything the analysis
	// uses: read back, they are the run's own dumps (in file name order,
	// the order they come back from disk in), and the flame and its
	// rendered text come out identical.
	mem := res.Faulted.TraceDumps
	sort.Slice(mem, func(i, j int) bool { return sanitize(mem[i].Entity()) < sanitize(mem[j].Entity()) })
	if !reflect.DeepEqual(faulted, mem) {
		t.Fatal("trace dumps changed on their way through the files")
	}
	memFlame := analysis.BuildFlame(analysis.MergeTraces(mem))
	if !reflect.DeepEqual(f, memFlame) {
		t.Fatal("flame built from the dump files differs from the in-memory one")
	}
	if memTxt := cliText(t, report.FromFlame("SYMBIOSYS dominant critical paths", memFlame, renderTop)); memTxt != flameTxt {
		t.Fatalf("report from the dump files differs:\n%s\nin memory:\n%s", flameTxt, memTxt)
	}

	// All three renderers over the faulted run's report model.
	model := report.FromFlame("analyze smoke", f, 5)
	model.Generated = "smoke"
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

// TestBatchSweepReports: a sweep that keeps its dumps traces at full
// stage, so the largest window's flame has a dominant path and its diff
// against the smallest window's shows the batch-window segment — the C4
// effect, per request.
func TestBatchSweepReports(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunBatchSweep(BatchSweepConfig{Windows: []int{1, 8}, Issuers: 2, OpsPerIssuer: 64}, "", dir); err != nil {
		t.Fatal(err)
	}
	w1 := analysis.BuildFlame(analysis.MergeTraces(readTraces(t, filepath.Join(dir, "batch-w1"))))
	w8 := analysis.BuildFlame(analysis.MergeTraces(readTraces(t, filepath.Join(dir, "batch-w8"))))
	if txt := cliText(t, report.FromFlame("SYMBIOSYS dominant critical paths", w8, renderTop)); !strings.Contains(txt, "#1 ") {
		t.Fatalf("window-8 report has no dominant path:\n%s", txt)
	}
	diff := cliText(t, report.FromFlameDiff("SYMBIOSYS critical-path diff", analysis.DiffFlames(w1, w8), renderTop))
	if !strings.Contains(diff, "batch_window") {
		t.Fatalf("window 1 vs 8 diff shows no batch-window segment:\n%s", diff)
	}
}

// TestReadDumpsRefusesOldFormats: a trace stream or trace dump of an
// earlier format version in a run directory is refused, not misread,
// with a message that names the file and the versions.
func TestReadDumpsRefusesOldFormats(t *testing.T) {
	for _, tc := range []struct{ file, data, want string }{
		{"n0_cli.trace.jsonl", `{"symbiosys_trace":2,"t0":5,"keys":{}}` + "\n" + `{"s":1,"v":"e"}` + "\n" + `{"i":1,"e":1}` + "\n",
			"is not version 4: it says version 2; re-export it"},
		{"n0_cli.trace.jsonl", `{"symbiosys_trace":3,"t0":5,"keys":{}}` + "\n" + `{"s":1,"v":"e"}` + "\n" + `{"x":1,"e":1}` + "\n" + `{"t":0,"x":1}` + "\n",
			"is not version 4: it says version 3; re-export it"},
		{"n0_cli.trace.bin", "SYTD\x01\x07\x00\x01\x01e\x01\x00\x00\x00\x01\x01\x01\x00\x00\x00\x00",
			"trace dump version 1 is not read by this build, which reads version 4 only"},
		{"n0_cli.trace.bin", "SYTD\x02\x07\x00\x01\x01e\x01\x00\x00\x00\x00\x00\x01\x00\x00\x01\x00\x00\x00\x01\x01\x00\x00\x00",
			"trace dump version 2 is not read by this build, which reads version 4 only"},
		{"n0_cli.trace.bin", "SYTD\x03\x07\x00\x01\x01e\x01\x00\x00\x00\x00\x00\x01\x00\x00\x01\x00\x00\x00\x01\x01\x00\x00\x00",
			"trace dump version 3 is not read by this build, which reads version 4 only"},
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

// TestWriteDumpsRefusesCollidingNames: two entities whose dumps sanitize
// to one file name fail the write, naming both, instead of one dump
// overwriting the other and ReadDumps seeing a process fewer.
func TestWriteDumpsRefusesCollidingNames(t *testing.T) {
	traces := []*core.TraceDump{core.NewTraceDump("a/b_c", 1, 0, nil), core.NewTraceDump("a_b/c", 2, 0, nil)}
	profiles := []*core.ProfileDump{{Entity: "a/b_c"}, {Entity: "a_b/c"}}
	for name, tc := range map[string]struct {
		profiles []*core.ProfileDump
		traces   []*core.TraceDump
	}{"profiles": {profiles, nil}, "traces": {nil, traces}} {
		err := WriteDumps(t.TempDir(), tc.profiles, tc.traces)
		if err == nil || !strings.Contains(err.Error(), `"a/b_c"`) || !strings.Contains(err.Error(), `"a_b/c"`) {
			t.Errorf("%s: WriteDumps error %v, want one naming both entities", name, err)
		}
	}
	dir := t.TempDir()
	if err := WriteDumps(dir, profiles[:1], traces[:1]); err != nil {
		t.Fatal(err)
	}
	if p, tr, _, err := ReadDumps(dir); err != nil || len(p) != 1 || len(tr) != 1 || tr[0].Entity() != "a/b_c" {
		t.Fatalf("one entity's profile and trace read back as %d profiles and %d traces (%v)", len(p), len(tr), err)
	}
}
