package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureEvents fabricates one clean two-hop request with queue waits,
// mirroring the analysis package's path fixtures.
func fixtureEvents(reqID uint64, base int64) []core.Event {
	bcMid := core.Breadcrumb(0).Push("a_rpc")
	bcLeaf := bcMid.Push("b_rpc")
	evs := []core.Event{
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 100,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), QueueNanos: 40},
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 200,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 300,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), QueueNanos: 30},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 400,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 500,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 300},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 600,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 500},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 700,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 700},
	}
	for i := range evs {
		evs[i].Order = uint64(i + 1)
	}
	return evs
}

func fixtureFlame(n int, base int64) *analysis.Flame {
	var dumps []*core.TraceDump
	for i := 0; i < n; i++ {
		dumps = append(dumps, core.NewTraceDump("d", 0, 0, fixtureEvents(uint64(i+1), base+int64(i)*10_000)))
	}
	return analysis.BuildFlame(analysis.MergeTraces(dumps))
}

// fixtureModel is the deterministic model behind the golden files:
// fixed epoch, caller-stamped Generated line.
func fixtureModel() *Model {
	m := FromFlame("Golden dominant paths", fixtureFlame(6, 1_000_000_000), 10)
	m.Generated = "GOLDEN"
	m.Notes = append(m.Notes, "fixture note")
	return m
}

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/analysis/report -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenCLI(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCLI(&buf, fixtureModel()); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "flame_cli.golden", buf.Bytes())
}

func TestGoldenHTML(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHTML(&buf, fixtureModel()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Structural assertions independent of the byte-exact golden: the
	// flame renders per-segment bars with p50/p99 detail.
	for _, want := range []string{"<!DOCTYPE html>", "barfill c-queue", "barfill c-exec", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("html report missing %q:\n%s", want, out)
		}
	}
	goldenCompare(t, "flame_html.golden", buf.Bytes())
}

func TestTUIRendersANSI(t *testing.T) {
	// The tui mode is the cli layout plus ANSI color and block bars; it
	// is not golden-pinned (terminal styling may evolve), just shape-
	// checked.
	var buf bytes.Buffer
	if err := WriteTUI(&buf, fixtureModel()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "\x1b[") {
		t.Fatal("tui output has no ANSI escapes")
	}
	if !strings.Contains(out, "Golden dominant paths") {
		t.Fatal("tui output missing title")
	}
}

func TestGoldenDiffCLI(t *testing.T) {
	before := fixtureFlame(6, 1_000_000_000)
	after := fixtureFlame(6, 2_000_000_000)
	d := analysis.DiffFlames(before, after)
	m := FromFlameDiff("Golden diff", d, 10)
	m.Generated = "GOLDEN"
	var buf bytes.Buffer
	if err := WriteCLI(&buf, m); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "diff_cli.golden", buf.Bytes())
}

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{"": ModeCLI, "cli": ModeCLI, "tui": ModeTUI, "html": ModeHTML}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMode("pdf"); err == nil {
		t.Fatal("ParseMode accepted bogus mode")
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	m := fixtureModel()
	path := filepath.Join(dir, "r.html")
	if err := WriteFile(path, ModeHTML, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<!DOCTYPE html>") {
		t.Fatalf("unexpected file head: %.40s", data)
	}
}

func TestSystemStatsModelSurfacesIncomplete(t *testing.T) {
	m := FromSystemStats("stats", []analysis.EntityStats{{
		Entity: "e1", Events: 4, MaxBlocked: 7, MaxCQ: 9, BatchedOps: 3, BatchFlushes: 2,
	}}, 3)
	var buf strings.Builder
	if err := WriteCLI(&buf, m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cq max", "7/0.0", "  9  ", "3/2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("entity table missing %q:\n%s", want, buf.String())
		}
	}
	found := false
	for _, n := range m.Notes {
		if strings.Contains(n, "3 requests have incomplete span sets") {
			found = true
		}
	}
	if !found {
		t.Fatalf("incomplete note missing: %v", m.Notes)
	}
}
