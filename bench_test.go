package symbiosys

// This file regenerates every table and figure of the paper's
// evaluation (§V–§VI). Each benchmark runs the corresponding experiment
// at a simulation-friendly scale and reports the paper's headline
// quantities through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports. Absolute numbers
// differ (simulated fabric, laptop host); EXPERIMENTS.md records the
// paper-vs-measured comparison and the shape checks.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/analysis/report"
	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
)

// scaledHEPnOS shrinks a Table IV configuration for bench runtime.
func scaledHEPnOS(cfg experiments.HEPnOSConfig, clientDiv, eventDiv int) experiments.HEPnOSConfig {
	if clientDiv > 1 && cfg.TotalClients > clientDiv {
		cfg.TotalClients /= clientDiv
		if cfg.ClientsPerNode > cfg.TotalClients {
			cfg.ClientsPerNode = cfg.TotalClients
		}
	}
	if eventDiv > 1 {
		cfg.EventsPerClient /= eventDiv
		if cfg.EventsPerClient < 64 {
			cfg.EventsPerClient = 64
		}
	}
	return cfg
}

func runHEPnOS(b *testing.B, cfg experiments.HEPnOSConfig) *experiments.HEPnOSResult {
	b.Helper()
	res, err := experiments.RunHEPnOS(cfg, "", "")
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig05MobjectWriteTrace reproduces Figure 5: the distributed
// trace of a single mobject_write_op, which must decompose into 12
// discrete SDSKV/BAKE microservice calls.
func BenchmarkFig05MobjectWriteTrace(b *testing.B) {
	var nested, spans int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMobjectIOR(experiments.MobjectConfig{
			Clients: 10, Segments: 4, TransferSize: 16 << 10,
		}, "", "")
		if err != nil {
			b.Fatal(err)
		}
		nested = res.NestedWriteCalls()
		spans = len(res.Traces.Zipkin(res.WriteTraceRequestID))
		if err := res.Traces.WriteZipkin(io.Discard, res.WriteTraceRequestID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nested), "nested_calls") // paper: 12
	b.ReportMetric(float64(spans), "zipkin_spans")
}

// BenchmarkFig06MobjectCallpaths reproduces Figure 6: the top-5
// dominant callpaths of the ior+Mobject workload by cumulative latency,
// with mobject_read_op => sdskv_list_keyvals_rpc dominant among the
// nested hops.
func BenchmarkFig06MobjectCallpaths(b *testing.B) {
	var topCum, listShare float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMobjectIOR(experiments.MobjectConfig{
			Clients: 10, Segments: 4, TransferSize: 16 << 10,
		}, "", "")
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Dominant
		if len(rows) == 0 {
			b.Fatal("no callpaths")
		}
		topCum = float64(rows[0].CumNanos) / 1e6
		// Share of the read op carried by the list_keyvals hop.
		var readCum, listCum uint64
		for _, r := range res.Profile.DominantCallpaths(0) {
			if r.Name == "mobject_read_op" {
				readCum = r.CumNanos
			}
			if r.Name == "mobject_read_op => sdskv_list_keyvals_rpc" {
				listCum = r.CumNanos
			}
		}
		if readCum > 0 {
			listShare = float64(listCum) / float64(readCum)
		}
	}
	b.ReportMetric(topCum, "top_callpath_cum_ms")
	b.ReportMetric(listShare, "list_share_of_read")
}

// BenchmarkFig07SonataBreakdown reproduces Figure 7: the breakdown of
// cumulative RPC execution time on the Sonata target for a 50,000-record
// JSON array stored in batches of 5,000 (scaled 1/10), where input
// deserialization accounts for ~27% and the internal RDMA transfer stays
// comparatively low.
func BenchmarkFig07SonataBreakdown(b *testing.B) {
	var deser, rdma float64
	var calls uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSonata(experiments.SonataConfig{
			Records: 5000, BatchSize: 500, RecordSize: 256,
		}, "", "")
		if err != nil {
			b.Fatal(err)
		}
		deser = res.DeserFraction()
		rdma = res.RDMAFraction()
		calls = res.RPCCalls
	}
	b.ReportMetric(deser, "deser_fraction") // paper: ~0.27
	b.ReportMetric(rdma, "rdma_fraction")   // paper: low
	b.ReportMetric(float64(calls), "rpc_calls")
}

// BenchmarkFig09HandlerSaturation reproduces Figure 9: C1 (5 execution
// streams) suffers target-handler-pool delays — a large share of the
// cumulative target RPC execution time — which C2 (20 streams)
// remediates, improving the cumulative time (paper: 26.6% handler share,
// 53.3% improvement).
func BenchmarkFig09HandlerSaturation(b *testing.B) {
	var fracC1, fracC2, improvement float64
	for i := 0; i < b.N; i++ {
		r1 := runHEPnOS(b, scaledHEPnOS(experiments.C1, 1, 2))
		r2 := runHEPnOS(b, scaledHEPnOS(experiments.C2, 1, 2))
		fracC1 = r1.HandlerFraction()
		fracC2 = r2.HandlerFraction()
		improvement = 1 - float64(r2.CumTargetExec)/float64(r1.CumTargetExec)
	}
	b.ReportMetric(fracC1, "handler_frac_c1")     // paper: 0.266
	b.ReportMetric(fracC2, "handler_frac_c2")     // paper: 0.14
	b.ReportMetric(improvement, "c2_improvement") // paper: 0.533
}

// BenchmarkFig10DatabaseSerialization reproduces Figure 10: with 32
// databases per server (C2) the flood of small put_packed RPCs
// serializes on the map backend, visible as blocked-ULT spikes; C3 (8
// databases) reduces both the RPC count and the severity, improving RPC
// performance (paper: 28.5%).
func BenchmarkFig10DatabaseSerialization(b *testing.B) {
	var rpcsC2, rpcsC3, maxBlockedC2, maxBlockedC3, improvement float64
	for i := 0; i < b.N; i++ {
		r2 := runHEPnOS(b, scaledHEPnOS(experiments.C2, 1, 2))
		r3 := runHEPnOS(b, scaledHEPnOS(experiments.C3, 1, 2))
		rpcsC2 = float64(r2.Unaccounted.Count)
		rpcsC3 = float64(r3.Unaccounted.Count)
		maxBlockedC2 = float64(r2.MaxBlocked())
		maxBlockedC3 = float64(r3.MaxBlocked())
		improvement = 1 - float64(r3.CumTargetExec)/float64(r2.CumTargetExec)
	}
	b.ReportMetric(rpcsC2, "rpcs_c2")
	b.ReportMetric(rpcsC3, "rpcs_c3")
	b.ReportMetric(maxBlockedC2, "max_blocked_c2")
	b.ReportMetric(maxBlockedC3, "max_blocked_c3")
	b.ReportMetric(improvement, "c3_improvement") // paper: 0.285
}

// BenchmarkFig11BatchProgress reproduces Figure 11: batch size 1 (C5)
// is dramatically slower than batch 1024 (C4); raising OFI_max_events
// (C6) and dedicating a progress stream (C7) successively improve RPC
// performance and shrink the unaccounted time (paper: C4 ~475x C5;
// C6 +40% and -47% unaccounted; C7 +75% and -90% unaccounted).
func BenchmarkFig11BatchProgress(b *testing.B) {
	var speedup, c6Impr, c7Impr, unacc5, unacc6, unacc7 float64
	for i := 0; i < b.N; i++ {
		r4 := runHEPnOS(b, scaledHEPnOS(experiments.C4, 1, 2))
		r5 := runHEPnOS(b, scaledHEPnOS(experiments.C5, 1, 2))
		r6 := runHEPnOS(b, scaledHEPnOS(experiments.C6, 1, 2))
		r7 := runHEPnOS(b, scaledHEPnOS(experiments.C7, 1, 2))
		speedup = float64(r5.WallTime) / float64(r4.WallTime)
		mean := func(r *experiments.HEPnOSResult) float64 {
			if r.Unaccounted.Count == 0 {
				return 0
			}
			return float64(r.CumOriginExec) / float64(r.Unaccounted.Count)
		}
		c6Impr = 1 - mean(r6)/mean(r5)
		c7Impr = 1 - mean(r7)/mean(r6)
		unacc5 = float64(r5.Unaccounted.Unaccount) / 1e6
		unacc6 = float64(r6.Unaccounted.Unaccount) / 1e6
		unacc7 = float64(r7.Unaccounted.Unaccount) / 1e6
	}
	b.ReportMetric(speedup, "c4_vs_c5_speedup")  // paper: ~475 (scale-compressed)
	b.ReportMetric(c6Impr, "c6_rpc_improvement") // paper: >0.40
	b.ReportMetric(c7Impr, "c7_rpc_improvement") // paper: 0.75
	b.ReportMetric(unacc5, "unaccounted_c5_ms")
	b.ReportMetric(unacc6, "unaccounted_c6_ms") // paper: -47% vs C5
	b.ReportMetric(unacc7, "unaccounted_c7_ms") // paper: -90% vs C6
}

// BenchmarkFig12OFIEvents reproduces Figure 12: the num_ofi_events_read
// PVAR sampled at t14. C4's samples never hit the 16-event budget; C5's
// are pinned at it; C6 (budget 64) and C7 (dedicated progress stream)
// drain the queue.
func BenchmarkFig12OFIEvents(b *testing.B) {
	var atCap4, atCap5, atCap6, atCap7 float64
	for i := 0; i < b.N; i++ {
		atCap4 = runHEPnOS(b, scaledHEPnOS(experiments.C4, 1, 4)).OFIAtCapFraction()
		atCap5 = runHEPnOS(b, scaledHEPnOS(experiments.C5, 1, 4)).OFIAtCapFraction()
		atCap6 = runHEPnOS(b, scaledHEPnOS(experiments.C6, 1, 4)).OFIAtCapFraction()
		atCap7 = runHEPnOS(b, scaledHEPnOS(experiments.C7, 1, 4)).OFIAtCapFraction()
	}
	b.ReportMetric(atCap4, "at_cap_frac_c4")
	b.ReportMetric(atCap5, "at_cap_frac_c5") // paper: pinned at threshold
	b.ReportMetric(atCap6, "at_cap_frac_c6")
	b.ReportMetric(atCap7, "at_cap_frac_c7") // paper: queue no longer backed up
}

// BenchmarkFig13Overheads reproduces Figure 13: execution time of the
// data-loader with instrumentation at Baseline / Stage 1 / Stage 2 /
// Full Support. The paper finds the overheads indistinguishable from
// run-to-run variation.
func BenchmarkFig13Overheads(b *testing.B) {
	var base, s1, s2, full float64
	var samples int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOverheadStudy(experiments.OverheadConfig{
			Base: scaledHEPnOS(experiments.C4, 1, 4),
			Reps: 3,
		}, "", "")
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range res.Stages {
			ms := float64(st.Mean) / 1e6
			switch st.Stage {
			case core.StageOff:
				base = ms
			case core.StageInject:
				s1 = ms
			case core.StageProfile:
				s2 = ms
			case core.StageFull:
				full = ms
				samples = st.TraceSamples
			}
		}
	}
	b.ReportMetric(base, "baseline_ms")
	b.ReportMetric(s1, "stage1_ms")
	b.ReportMetric(s2, "stage2_ms")
	b.ReportMetric(full, "full_support_ms")
	b.ReportMetric(float64(samples), "trace_samples")
}

// BenchmarkTableIVConfigs sweeps all seven Table IV configurations and
// reports each one's wall time, for the configuration-comparison view
// underlying Figures 9–12.
func BenchmarkTableIVConfigs(b *testing.B) {
	walls := make([]float64, 7)
	for i := 0; i < b.N; i++ {
		for j, cfg := range experiments.TableIV() {
			res := runHEPnOS(b, scaledHEPnOS(cfg, 2, 4))
			walls[j] = float64(res.WallTime) / 1e6
		}
	}
	names := []string{"c1_ms", "c2_ms", "c3_ms", "c4_ms", "c5_ms", "c6_ms", "c7_ms"}
	for j, n := range names {
		b.ReportMetric(walls[j], n)
	}
}

// BenchmarkAnalysisPass is one analyst's pass over the dumps of a small
// C7 run, the fixture sym's golden tests read (cmd/sym/testdata/c7: six
// processes, 256 requests, 1,024 events): read them, merge the profiles
// and the traces, extract every critical path, count the incomplete
// requests, fold the flame and render both reports. It reports the heap
// bytes a pass allocates per request, and what decoding the trace dumps
// into their span tables allocates per byte of dump. `make alloc-sites
// ALLOC_SITES_BENCH=BenchmarkAnalysisPass` ranks where one pass puts its
// bytes.
func BenchmarkAnalysisPass(b *testing.B) {
	const dir = "cmd/sym/testdata/c7"
	b.ReportAllocs()
	var requests int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		profiles, traces, _, err := experiments.ReadDumps(dir)
		if err != nil {
			b.Fatal(err)
		}
		merged := analysis.Merge(profiles)
		ts := analysis.MergeTraces(traces)
		paths, stats := analysis.ExtractPaths(ts)
		if stats.Incomplete+ts.IncompleteRequests() != 0 || len(paths) != stats.Requests {
			b.Fatalf("%d paths of %d requests, %d incomplete", len(paths), stats.Requests, stats.Incomplete)
		}
		flame := analysis.FoldPaths(paths)
		flame.Stats = stats
		if err := report.WriteCLI(io.Discard, report.FromFlame("analysis pass", flame, 5)); err != nil {
			b.Fatal(err)
		}
		if err := report.WriteCLI(io.Discard, report.FromProfile("analysis pass", merged, 5)); err != nil {
			b.Fatal(err)
		}
		requests = stats.Requests
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	b.ReportMetric(float64(requests), "requests")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*requests), "B/request")

	files, err := filepath.Glob(filepath.Join(dir, "*.trace.bin"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no trace dumps in %s (%v)", dir, err)
	}
	var dumpBytes, decodeBytes uint64
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(data)
		runtime.ReadMemStats(&before)
		if _, err := core.ReadTrace(rd); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		dumpBytes += uint64(len(data))
		decodeBytes += after.TotalAlloc - before.TotalAlloc
	}
	b.ReportMetric(float64(decodeBytes)/float64(dumpBytes), "decodeB/dumpB")
}

var _ = time.Now // keep time imported for future tuning
