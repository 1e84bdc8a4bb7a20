package analysis_test

import (
	"strings"
	"testing"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
	"symbiosys/internal/core"
)

// TestRenderSummaryMentionsCallpaths renders a merged profile the way
// sym prof does and looks for what an analyst reads off it: the callpath
// by name, its latency percentiles, who called it, and a warning when
// the trace behind it was truncated.
func TestRenderSummaryMentionsCallpaths(t *testing.T) {
	bc := core.Breadcrumb(0).Push("a_rpc").Push("b_rpc")
	stats := core.CallStats{Count: 5, CumNanos: uint64(10 * time.Millisecond),
		MinNanos: uint64(2 * time.Millisecond), MaxNanos: uint64(2 * time.Millisecond)}
	stats.Components[core.CompOriginExec] = stats.CumNanos
	m := analysis.Merge([]*core.ProfileDump{{
		Entity:       "p0",
		TraceDropped: 3,
		Names:        map[uint16]string{core.Hash16("a_rpc"): "a_rpc", core.Hash16("b_rpc"): "b_rpc"},
		Origin:       []core.DumpEntry{{BC: uint64(bc), Peer: "srv", Stats: stats}},
		Target:       []core.DumpEntry{{BC: uint64(bc), Peer: "p0", Stats: stats}},
	}})
	var buf strings.Builder
	if err := report.WriteCLI(&buf, report.FromProfile("summary", m, 5)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"a_rpc => b_rpc", "origins: p0:5", "targets: p0:5", "p50 ", "p95 ", "p99 ",
		"note: 3 trace events dropped at capacity",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
