package symbiosys

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// serialized "map" backend vs a concurrent one (does the Figure 10
// pathology disappear?) and the per-RPC cost of each SYMBIOSYS
// measurement stage.

import (
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// BenchmarkAblationBackend reruns the Figure 10 flood with the paper's
// serialized map backend and with a sharded concurrent backend. With
// parallel insertion the write-serialization signal (blocked ULTs) must
// collapse — confirming the paper's root-cause analysis.
func BenchmarkAblationBackend(b *testing.B) {
	var blockedMap, blockedSharded float64
	var execMap, execSharded float64
	for i := 0; i < b.N; i++ {
		cfg := scaledHEPnOS(experiments.C2, 2, 4)
		cfg.Backend = "map"
		rm := runHEPnOS(b, cfg)
		cfg.Backend = "shardedmap"
		rs := runHEPnOS(b, cfg)
		blockedMap = float64(rm.MaxBlocked())
		blockedSharded = float64(rs.MaxBlocked())
		execMap = float64(rm.CumTargetExec) / 1e6
		execSharded = float64(rs.CumTargetExec) / 1e6
	}
	b.ReportMetric(blockedMap, "max_blocked_map")
	b.ReportMetric(blockedSharded, "max_blocked_sharded")
	b.ReportMetric(execMap, "cum_exec_map_ms")
	b.ReportMetric(execSharded, "cum_exec_sharded_ms")
}

// BenchmarkAblationStageCost measures raw per-RPC latency at each
// measurement stage over the same echo workload — the microscopic view
// behind the Figure 13 result that instrumentation overhead is small.
func BenchmarkAblationStageCost(b *testing.B) {
	perStage := map[core.Stage]float64{}
	for i := 0; i < b.N; i++ {
		for _, stage := range []core.Stage{core.StageOff, core.StageInject, core.StageProfile, core.StageFull} {
			perStage[stage] = echoLatency(b, stage)
		}
	}
	b.ReportMetric(perStage[core.StageOff], "baseline_us_per_rpc")
	b.ReportMetric(perStage[core.StageInject], "stage1_us_per_rpc")
	b.ReportMetric(perStage[core.StageProfile], "stage2_us_per_rpc")
	b.ReportMetric(perStage[core.StageFull], "full_us_per_rpc")
}

// echoLatency runs a batch of sequential echo RPCs at the given stage
// and returns the mean microseconds per call.
func echoLatency(b *testing.B, stage core.Stage) float64 {
	b.Helper()
	fabric := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n1", Name: "srv", Fabric: fabric,
		HandlerStreams: 2, Stage: stage,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()
	cli, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "n0", Name: "cli", Fabric: fabric, Stage: stage,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Shutdown()
	srv.Register("echo_rpc", func(ctx *margo.Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("echo_rpc")

	const calls = 400
	var elapsed time.Duration
	u := cli.Run("bench", func(self *abt.ULT) {
		start := time.Now()
		for i := 0; i < calls; i++ {
			if err := cli.Forward(self, srv.Addr(), "echo_rpc", &mercury.Void{}, nil); err != nil {
				b.Error(err)
				return
			}
		}
		elapsed = time.Since(start)
	})
	if err := u.Join(nil); err != nil {
		b.Fatal(err)
	}
	return float64(elapsed.Microseconds()) / calls
}
