// Command hepnos-bench runs the paper's case studies on the simulated
// platform and prints the series each figure plots: the ior+Mobject
// study (Figures 5 and 6), the Sonata batch store (Figure 7) and the
// HEPnOS configurations (Table IV, Figures 9–13). With -out it persists
// the run's per-process profile/trace dumps for the sym tool.
//
// Usage:
//
//	hepnos-bench                       # run all seven configurations
//	hepnos-bench -config C2            # one configuration
//	hepnos-bench -figure 5|6 [-out dumps/]  # ior+Mobject: 10 clients, 8 x 16 KiB
//	hepnos-bench -figure 7             # Sonata: 50,000 records, batch 5,000
//	hepnos-bench -figure 9             # the C1-vs-C2 study
//	hepnos-bench -figure 10|11|12|13
//	hepnos-bench -config C5 -out dumps/
//	hepnos-bench -scale 4              # divide event counts by 4 (floor 64)
//	hepnos-bench -config C1 -metrics :9100   # live /metrics + /snapshot
//	hepnos-bench -chaos                # C2 under the seeded fault plan
//	hepnos-bench -chaos -config C3 -metrics :9100
//	hepnos-bench -overload             # overload storm + recovery scenario
//	hepnos-bench -batch                # batch-window sweep (C4 effect)
//	hepnos-bench -elastic              # elastic scale-out 4 -> 16 -> 8
//
// The -figure 5|6 run prints the write op's request ID; its Figure 5
// trace is one `sym trace -dir <out> -req <id> -zipkin f.json` away. The
// -figure 7 run audits its store (the collection's size, and a sample of
// documents fetched back byte-equal); a failed audit is a non-zero exit.
//
// With -elastic, the run scales an elastic sdskv store from 4 to 16
// nodes and back down to 8 under a sustained client load, streaming the
// moving shards live, and reports per-phase p99, migration volume, and
// the acked-op audit (zero lost is the bar; a loss is a non-zero exit).
//
// With -batch, the run drives the same multi-op workload through the
// margo coalescer at windows {1, 8, 64} (window 1 is the unbatched
// baseline) and reports per-window throughput, speedup, and the
// coalescer accounting: flush counts, coalesce ratio, and the
// flush-reason histogram.
//
// With -chaos, the run replays the configuration (default C2) under a
// deterministic fault plan (1% drop, 5ms delay on 5% of messages, seed
// 42) with the margo retry policy absorbing failures, and reports
// goodput, retry amplification, and p99 inflation against a clean
// baseline.
//
// With -overload, the run drives an undersized provider past saturation
// with deadline-stamped requests, then lets it recover, and reports the
// shed rate, breaker trips, and p99 before/after recovery. A SIGINT or
// SIGTERM during any run triggers a graceful drain of the live cluster
// before exiting.
//
// With -metrics, the run serves Prometheus exposition over every
// process while it executes; each scrape reads the processes at that
// moment, and nothing runs between scrapes:
//
//	curl http://localhost:9100/metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
)

func main() {
	configName := flag.String("config", "", "run one configuration (C1..C7)")
	figure := flag.Int("figure", 0, "reproduce one figure (5, 6, 7, 9, 10, 11, 12, or 13)")
	scale := flag.Int("scale", 1, "divide per-client event counts by this factor (floor 64)")
	out := flag.String("out", "", "directory to write per-process dumps into")
	metrics := flag.String("metrics", "", "serve live /metrics + /snapshot on this address during runs (e.g. :9100)")
	chaos := flag.Bool("chaos", false, "replay the configuration (default C2) under a fault plan with retries")
	batchSweep := flag.Bool("batch", false, "run the batch-window sweep (paper C4 effect) and report coalescer stats")
	overload := flag.Bool("overload", false, "run the overload storm + recovery scenario")
	elastic := flag.Bool("elastic", false, "run the elastic scale-out/scale-in scenario with live shard migration")
	reportDir := flag.String("report", "", "directory for automatic critical-path reports from -chaos/-overload/-batch runs")
	reportFmt := flag.String("report-format", "html", "report output mode: cli, tui, or html")
	flag.Parse()
	metricsAddr = *metrics
	reportCfg = experiments.ReportConfig{Dir: *reportDir, Mode: *reportFmt}

	// A signal during a run drains the live cluster — stop admitting,
	// finish in-flight handlers, flush sinks — instead of dying with
	// work on the wire.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "\nhepnos-bench: %v, draining live clusters...\n", sig)
		if err := experiments.DrainActive(5 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "hepnos-bench: drain:", err)
			os.Exit(1)
		}
		os.Exit(130)
	}()

	switch {
	case *elastic:
		runElastic()
	case *batchSweep:
		runBatchSweep()
	case *overload:
		runOverload()
	case *chaos:
		name := *configName
		if name == "" {
			name = "C2"
		}
		runChaos(lookup(name), *scale)
	case *configName != "":
		runOne(*configName, *scale, *out)
	case *figure != 0:
		runFigure(*figure, *scale, *out)
	default:
		for _, cfg := range experiments.TableIV() {
			report(run(cfg, *scale))
		}
	}
}

// metricsAddr, when non-empty, enables live telemetry on every run.
var metricsAddr string

// reportCfg, when its Dir is non-empty, makes the chaos/overload/batch
// scenarios emit critical-path reports (flames + diffs) automatically.
var reportCfg experiments.ReportConfig

// printReports lists the report files a scenario emitted.
func printReports(paths []string) {
	for _, p := range paths {
		fmt.Printf("  report: %s\n", p)
	}
}

func lookup(name string) experiments.HEPnOSConfig {
	for _, cfg := range experiments.TableIV() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg
		}
	}
	fmt.Fprintf(os.Stderr, "hepnos-bench: unknown configuration %q (want C1..C7)\n", name)
	os.Exit(2)
	panic("unreachable")
}

// configure applies -scale and -metrics to a configuration.
func configure(cfg experiments.HEPnOSConfig, scale int) experiments.HEPnOSConfig {
	cfg = cfg.Scaled(scale)
	if metricsAddr != "" {
		cfg.MetricsAddr = metricsAddr
	}
	return cfg
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
	os.Exit(1)
}

func run(cfg experiments.HEPnOSConfig, scale int) *experiments.HEPnOSResult {
	cfg = configure(cfg, scale)
	res, err := experiments.RunHEPnOS(cfg)
	if err != nil {
		fatal(err)
	}
	if res.MetricsAddr != "" {
		fmt.Printf("[%s] served live telemetry on http://%s/metrics\n", cfg.Name, res.MetricsAddr)
	}
	return res
}

func report(res *experiments.HEPnOSResult) {
	c := res.Components
	fmt.Printf("\n=== %s (clients %d, servers %d, batch %d, threads %d, dbs %d, OFI %d, progress-ES %v)\n",
		res.Config.Name, res.Config.TotalClients, res.Config.TotalServers,
		res.Config.BatchSize, res.Config.Threads, res.Config.Databases,
		res.Config.OFIMaxEvents, res.Config.ClientProgressThread)
	fmt.Printf("  wall %v   events %d   put_packed RPCs %d   trace samples %d\n",
		res.WallTime.Round(time.Millisecond), res.EventsStored,
		res.Unaccounted.Count, res.TraceSamples)
	if res.TraceDropped > 0 {
		fmt.Printf("  WARNING: %d trace events dropped at capacity\n", res.TraceDropped)
	}
	fmt.Printf("  cumulative target RPC execution %v (Fig 9 bar):\n", res.CumTargetExec.Round(time.Millisecond))
	fmt.Printf("    handler %v (%.1f%%)  exec %v  input-deser %v  rdma %v  target-cb %v\n",
		time.Duration(c[core.CompHandler]).Round(time.Millisecond), 100*res.HandlerFraction(),
		time.Duration(c[core.CompTargetExec]).Round(time.Millisecond),
		time.Duration(c[core.CompInputDeser]).Round(time.Millisecond),
		time.Duration(c[core.CompRDMA]).Round(time.Millisecond),
		time.Duration(c[core.CompTargetCB]).Round(time.Millisecond))
	fmt.Printf("  cumulative origin execution %v; unaccounted %v (%.1f%%) (Fig 11 bar)\n",
		res.CumOriginExec.Round(time.Millisecond),
		time.Duration(res.Unaccounted.Unaccount).Round(time.Millisecond),
		100*res.Unaccounted.UnaccountedFraction())
	fmt.Printf("  blocked ULTs: %d samples, max %d (Fig 10 scatter)\n",
		len(res.BlockedSeries), res.MaxBlocked())
	fmt.Printf("  ofi events read: %d samples, at-cap %.1f%% of passes (Fig 12 series)\n",
		len(res.OFISeries), 100*res.OFIAtCapFraction())
	if res.Profile != nil {
		fmt.Printf("  dominant callpath latency percentiles (two-per-octave histogram):\n")
		for _, row := range res.Profile.DominantCallpaths(3) {
			fmt.Printf("    %-28s n=%-8d p50 %-10v p95 %-10v p99 %v\n",
				row.Name, row.Count,
				row.Percentile(50).Round(time.Microsecond),
				row.Percentile(95).Round(time.Microsecond),
				row.Percentile(99).Round(time.Microsecond))
		}
	}
}

func runChaos(base experiments.HEPnOSConfig, scale int) {
	res, err := experiments.RunChaos(experiments.ChaosConfig{
		Base:         configure(base, scale),
		DropProb:     0.01,
		DelayProb:    0.05,
		Delay:        5 * time.Millisecond,
		Seed:         42,
		CompareClean: true,
		Report:       reportCfg,
	})
	if err != nil {
		fatal(err)
	}
	f, cfg := res.Faulted, res.Config
	fmt.Printf("\n=== chaos %s (drop %.2f%%, delay %v@%.0f%%, seed %d)\n",
		base.Name, 100*cfg.DropProb, cfg.Delay, 100*cfg.DelayProb, cfg.Seed)
	fmt.Printf("  injected: drops %d  dups %d  delays %d  refusals %d\n",
		f.Faults.Drops, f.Faults.Dups, f.Faults.Delays, f.Faults.Refusals)
	fmt.Printf("  client resilience: retries %d  timeouts %d  exhausted %d  cancels %d\n",
		f.Retries, f.Timeouts, f.Exhausted, f.Cancels)
	fmt.Printf("  operations: %d/%d stored, %d lost\n",
		f.EventsStored, res.ExpectedEvents, res.LostEvents)
	fmt.Printf("  goodput %.0f events/s  retry amplification %.3fx\n",
		res.GoodputEventsPerSec, res.RetryAmplification)
	if res.Clean != nil {
		fmt.Printf("  wall time: clean %v -> chaos %v\n",
			res.Clean.WallTime.Round(time.Millisecond), f.WallTime.Round(time.Millisecond))
		fmt.Printf("  put_packed origin p99: clean %v -> chaos %v (%.2fx inflation)\n",
			res.P99Clean.Round(time.Microsecond), res.P99Chaos.Round(time.Microsecond),
			res.P99Inflation())
	}
	printReports(res.ReportPaths)
	if res.LostEvents != 0 {
		fmt.Fprintln(os.Stderr, "hepnos-bench: chaos run lost client operations")
		os.Exit(1)
	}
}

func runBatchSweep() {
	res, err := experiments.RunBatchSweep(experiments.BatchSweepConfig{
		Windows: []int{1, 8, 64}, Issuers: 2, OpsPerIssuer: 512, Report: reportCfg,
	})
	if err != nil {
		fatal(err)
	}
	cfg := res.Config
	fmt.Printf("\n=== batch window sweep (%d issuers x %d ops; paper C4 effect)\n",
		cfg.Issuers, cfg.OpsPerIssuer)
	for _, p := range res.Points {
		line := fmt.Sprintf("  window %3d: %8.0f ops/s  wall %-10v", p.Window, p.OpsPerSec,
			p.WallTime.Round(10*time.Microsecond))
		if p.Window == 1 {
			fmt.Printf("%s (unbatched baseline)\n", line)
			continue
		}
		fmt.Printf("%s %.1fx speedup; %d flushes, coalesce %.1f ops/flush%s\n",
			line, res.Speedup(p.Window), p.Flushes, p.CoalesceRatio, reasonSummary(p.FlushReasons))
		if p.Retries > 0 {
			fmt.Printf("              %d batch retries\n", p.Retries)
		}
	}
	printReports(res.ReportPaths)
}

// reasonSummary renders a flush-reason histogram deterministically.
func reasonSummary(reasons map[string]uint64) string {
	if len(reasons) == 0 {
		return ""
	}
	keys := make([]string, 0, len(reasons))
	for r := range reasons {
		keys = append(keys, r)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(" (")
	for i, r := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", r, reasons[r])
	}
	b.WriteString(")")
	return b.String()
}

func runOverload() {
	res, err := experiments.RunOverload(experiments.OverloadConfig{
		StormOps:    40,
		RecoveryOps: 20,
		MetricsAddr: metricsAddr,
		Report:      reportCfg,
	})
	if err != nil {
		fatal(err)
	}
	cfg := res.Config
	fmt.Printf("\n=== overload storm (%d clients x %d issuers, %d ops each, deadline %v; server %d streams, %v/op, max in-flight %d)\n",
		experiments.StormClients, experiments.StormIssuersPerClient, cfg.StormOps, experiments.StormDeadline,
		experiments.StormHandlerStreams, time.Duration(experiments.StormHandlerCost), experiments.StormMaxInFlight)
	fmt.Printf("  storm:    %d/%d acked (%.1f%%)  p99 %v\n",
		res.StormAcked, res.StormOps, 100*res.StormSuccessRate(),
		res.StormP99.Round(time.Microsecond))
	fmt.Printf("  shed %d  expired %d  (shed rate %.1f%% of storm ops)\n",
		res.Shed, res.Expired, 100*float64(res.Shed)/float64(res.StormOps))
	fmt.Printf("  breakers: %d trips, %d local fast-fails; retries %d, exhausted %d\n",
		res.BreakerTrips, res.BreakerFastFails, res.Retries, res.Exhausted)
	fmt.Printf("  handler queue high-watermark %d (cap %d)\n",
		res.QueueHWM, experiments.StormMaxInFlight)
	fmt.Printf("  recovery: %d/%d acked (%.1f%%)  p99 %v (storm p99 %v)\n",
		res.RecoveryAcked, res.RecoveryOps, 100*res.RecoverySuccessRate(),
		res.RecoveryP99.Round(time.Microsecond), res.StormP99.Round(time.Microsecond))
	if res.MetricsAddr != "" {
		fmt.Printf("  served live telemetry on http://%s/metrics\n", res.MetricsAddr)
	}
	printReports(res.ReportPaths)
	if res.DrainErr != nil {
		fmt.Fprintln(os.Stderr, "hepnos-bench: drain:", res.DrainErr)
		os.Exit(1)
	}
	fmt.Printf("  graceful drain completed; %d acked-then-lost ops\n", res.LostAcked)
	if res.LostAcked != 0 {
		fmt.Fprintln(os.Stderr, "hepnos-bench: overload run acknowledged operations it lost")
		os.Exit(1)
	}
}

func runElastic() {
	res, err := experiments.RunElastic(experiments.ElasticConfig{
		StartNodes: 4, PeakNodes: 16, EndNodes: 8,
		IssuersPerClient: 4,
		OpsPerPhase:      60,
		MetricsAddr:      metricsAddr,
		Report:           reportCfg,
	})
	if err != nil {
		fatal(err)
	}
	cfg := res.Config
	fmt.Printf("\n=== elastic scale-out %d -> %d -> %d nodes (%d clients x %d issuers, %d ops/phase)\n",
		cfg.StartNodes, cfg.PeakNodes, cfg.EndNodes,
		experiments.ElasticClients, cfg.IssuersPerClient, cfg.OpsPerPhase)
	for _, p := range res.Phases {
		fmt.Printf("  %-12s %2d nodes: %4d/%d acked  p99 %v\n",
			p.Name, p.Nodes, p.Acked, p.Ops, p.P99.Round(time.Microsecond))
	}
	fmt.Printf("  migration: %d keys out, %d in; %d dual-writes, %d read-throughs, %d redirects, %d wrong routes\n",
		res.KeysMigratedOut, res.KeysMigratedIn, res.DualWrites,
		res.ReadThroughs, res.Redirects, res.WrongRoutes)
	fmt.Printf("  p99 under migration %v vs steady %v; %d sdskv_migrate_* trace spans\n",
		res.MigrationP99().Round(time.Microsecond), res.SteadyP99().Round(time.Microsecond),
		res.MigrateSpans)
	fmt.Printf("  final spread over %d nodes:\n", len(res.FinalSpread))
	addrs := make([]string, 0, len(res.FinalSpread))
	for a := range res.FinalSpread {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		fmt.Printf("    %-24s %d pairs\n", a, res.FinalSpread[a])
	}
	if res.MetricsAddr != "" {
		fmt.Printf("  served live telemetry on http://%s/metrics\n", res.MetricsAddr)
	}
	printReports(res.ReportPaths)
	if res.DrainErr != nil {
		fmt.Fprintln(os.Stderr, "hepnos-bench: drain:", res.DrainErr)
		os.Exit(1)
	}
	fmt.Printf("  audit: %d acked-then-lost ops\n", res.LostAcked)
	if res.LostAcked != 0 {
		fmt.Fprintln(os.Stderr, "hepnos-bench: elastic run acknowledged operations it lost")
		os.Exit(1)
	}
}

func runOne(name string, scale int, out string) {
	cfg := lookup(name)
	if out == "" {
		report(run(cfg, scale))
		return
	}
	profiles, traces, err := experiments.CollectHEPnOSDumps(configure(cfg, scale))
	if err != nil {
		fatal(err)
	}
	writeDumps(out, profiles, traces)
}

func writeDumps(out string, profiles []*core.ProfileDump, traces []*core.TraceDump) {
	if err := experiments.WriteDumps(out, profiles, traces); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d profile and %d trace dumps to %s\n", len(profiles), len(traces), out)
}

// runMobject runs the ior+Mobject study at the paper's shape (§V-A2:
// ten colocated clients) and prints Figure 6's callpaths and Figure 5's
// write op.
func runMobject(out string) {
	cfg := experiments.MobjectConfig{Clients: 10, Segments: 8, TransferSize: 16 << 10}
	res, err := experiments.RunMobjectIOR(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ior+Mobject: %d clients x %d segments x %d B, wall %v\n",
		cfg.Clients, cfg.Segments, cfg.TransferSize, res.WallTime.Round(time.Millisecond))
	fmt.Println("\nTop 5 dominant callpaths by cumulative latency (Figure 6):")
	for i, row := range res.Dominant {
		fmt.Printf("  [%d] %-55s calls %4d  cum %10v  mean %v\n",
			i+1, row.Name, row.Count,
			time.Duration(row.CumNanos).Round(time.Microsecond), row.Mean().Round(time.Microsecond))
	}
	fmt.Printf("\nOne mobject_write_op request (%#x) decomposes into %d discrete "+
		"microservice calls (Figure 5; paper: 12):\n",
		res.WriteTraceRequestID, res.NestedWriteCalls())
	for _, s := range res.WriteSpans {
		if s.Kind == "SERVER" {
			fmt.Printf("  %-28s on %-14s dur %v\n",
				s.RPCName, s.Entity, time.Duration(s.DurNanos).Round(time.Microsecond))
		}
	}
	if out != "" {
		fmt.Println()
		writeDumps(out, res.ProfileDumps, res.TraceDumps)
		fmt.Printf("its Zipkin v2 trace: sym trace -dir %s -req %#x -zipkin write_op.json\n",
			out, res.WriteTraceRequestID)
	}
}

// runSonata runs the Sonata batch store at the paper's shape (§V-B) and
// prints how the target's cumulative execution maps to steps (Figure 7).
func runSonata() {
	cfg := experiments.SonataConfig{Records: 50_000, BatchSize: 5_000, RecordSize: 256}
	res, err := experiments.RunSonata(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Sonata: %d records, batch %d, ~%d B/record, %d RPC calls, wall %v\n",
		cfg.Records, cfg.BatchSize, cfg.RecordSize, res.RPCCalls, res.WallTime.Round(time.Millisecond))
	fmt.Println("\nCumulative target execution breakdown (Figure 7):")
	total := res.Handler + res.RDMA + res.TargetExec
	row := func(name string, v uint64) {
		fmt.Printf("  %-28s %12v  %5.1f%%\n",
			name, time.Duration(v).Round(time.Microsecond), 100*float64(v)/float64(total))
	}
	row("target handler time", res.Handler)
	row("internal RDMA transfer", res.RDMA)
	row("input deserialization", res.InputDeser)
	row("execution (exclusive)", res.ExecExclusive)
	row("output serialization", res.OutputSer)
	fmt.Printf("\ninput deserialization share: %.1f%% (paper: 27%%); internal RDMA: %.1f%% (paper: low)\n",
		100*res.DeserFraction(), 100*res.RDMAFraction())
}

func runFigure(fig, scale int, out string) {
	switch fig {
	case 5, 6:
		runMobject(out)
	case 7:
		runSonata()
	case 9:
		r1 := run(experiments.C1, scale)
		r2 := run(experiments.C2, scale)
		report(r1)
		report(r2)
		fmt.Printf("\nFigure 9: C1 handler share %.1f%% (paper 26.6%%); C2 %.1f%% (paper 14%%); "+
			"C2 improves cumulative target execution by %.1f%% (paper 53.3%%)\n",
			100*r1.HandlerFraction(), 100*r2.HandlerFraction(),
			100*(1-float64(r2.CumTargetExec)/float64(r1.CumTargetExec)))
	case 10:
		r2 := run(experiments.C2, scale)
		r3 := run(experiments.C3, scale)
		report(r2)
		report(r3)
		fmt.Printf("\nFigure 10: C2 issued %d RPCs (max blocked %d); C3 issued %d (max blocked %d); "+
			"C3 improves by %.1f%% (paper 28.5%%)\n",
			r2.Unaccounted.Count, r2.MaxBlocked(), r3.Unaccounted.Count, r3.MaxBlocked(),
			100*(1-float64(r3.CumTargetExec)/float64(r2.CumTargetExec)))
	case 11, 12:
		r4 := run(experiments.C4, scale)
		r5 := run(experiments.C5, scale)
		r6 := run(experiments.C6, scale)
		r7 := run(experiments.C7, scale)
		for _, r := range []*experiments.HEPnOSResult{r4, r5, r6, r7} {
			report(r)
		}
		mean := func(r *experiments.HEPnOSResult) time.Duration {
			if r.Unaccounted.Count == 0 {
				return 0
			}
			return r.CumOriginExec / time.Duration(r.Unaccounted.Count)
		}
		fmt.Printf("\nFigure 11: C4 is %.0fx faster than C5 in wall time (paper ~475x at full scale);\n"+
			"  per-RPC origin execution C5 %v -> C6 %v (%.0f%% better; paper >40%%) -> C7 %v (%.0f%% better; paper 75%%)\n",
			float64(r5.WallTime)/float64(r4.WallTime),
			mean(r5).Round(time.Microsecond), mean(r6).Round(time.Microsecond),
			100*(1-float64(mean(r6))/float64(mean(r5))),
			mean(r7).Round(time.Microsecond),
			100*(1-float64(mean(r7))/float64(mean(r6))))
		fmt.Printf("Figure 12: at-cap fraction C4 %.2f, C5 %.2f (pinned), C6 %.2f, C7 %.2f (drained)\n",
			r4.OFIAtCapFraction(), r5.OFIAtCapFraction(), r6.OFIAtCapFraction(), r7.OFIAtCapFraction())
	case 13:
		res, err := experiments.RunOverheadStudy(experiments.OverheadConfig{Base: experiments.C4.Scaled(scale), Reps: 5})
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 13: data-loader execution time per measurement stage (5 reps):")
		for _, st := range res.Stages {
			fmt.Printf("  %-12s mean %v  min %v  max %v  trace samples %d\n",
				st.Stage, st.Mean.Round(time.Millisecond),
				st.Min.Round(time.Millisecond), st.Max.Round(time.Millisecond),
				st.TraceSamples)
		}
		fmt.Printf("  full-support overhead vs baseline: %.2fx (paper: indistinguishable from variation)\n",
			res.OverheadVsBaseline(core.StageFull))
	default:
		fmt.Fprintln(os.Stderr, "hepnos-bench: -figure must be 5, 6, 7, 9, 10, 11, 12, or 13")
		os.Exit(2)
	}
}
