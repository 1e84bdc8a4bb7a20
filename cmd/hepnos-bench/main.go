// Command hepnos-bench runs the paper's HEPnOS configuration studies
// (Table IV, Figures 9–13) on the simulated platform and prints the
// series each figure plots. Optionally it persists the per-process
// profile/trace dumps for the symprof/symtrace/symstats tools.
//
// Usage:
//
//	hepnos-bench                       # run all seven configurations
//	hepnos-bench -config C2            # one configuration
//	hepnos-bench -figure 9             # the C1-vs-C2 study
//	hepnos-bench -figure 10|11|12|13
//	hepnos-bench -config C5 -out dumps/
//	hepnos-bench -scale 4              # divide event counts by 4
//	hepnos-bench -config C1 -metrics :9100   # live /metrics + /snapshot
//	hepnos-bench -chaos                # C2 under the seeded fault plan
//	hepnos-bench -chaos -config C3 -metrics :9100
//	hepnos-bench -overload             # overload storm + recovery scenario
//	hepnos-bench -batch                # batch-window sweep (C4 effect)
//	hepnos-bench -elastic              # elastic scale-out 4 -> 16 -> 8
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
	figure := flag.Int("figure", 0, "reproduce one figure (9, 10, 11, 12, or 13)")
	scale := flag.Int("scale", 1, "divide per-client event counts by this factor")
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
		runFigure(*figure, *scale)
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

func run(cfg experiments.HEPnOSConfig, scale int) *experiments.HEPnOSResult {
	if scale > 1 {
		cfg.EventsPerClient /= scale
		if cfg.EventsPerClient < 64 {
			cfg.EventsPerClient = 64
		}
	}
	if metricsAddr != "" {
		cfg.MetricsAddr = metricsAddr
	}
	res, err := experiments.RunHEPnOS(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
		os.Exit(1)
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
	if metricsAddr != "" {
		base.MetricsAddr = metricsAddr
	}
	res, err := experiments.RunChaos(experiments.ChaosConfig{
		Base:         base,
		DropProb:     0.01,
		DelayProb:    0.05,
		Delay:        5 * time.Millisecond,
		Seed:         42,
		Scale:        scale,
		CompareClean: true,
		Report:       reportCfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
		os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
		os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
		os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
		os.Exit(1)
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
	if scale > 1 {
		cfg.EventsPerClient /= scale
	}
	profiles, traces, err := experiments.CollectHEPnOSDumps(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
		os.Exit(1)
	}
	if err := experiments.WriteDumps(out, profiles, traces); err != nil {
		fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d profile and %d trace dumps to %s\n", len(profiles), len(traces), out)
}

func runFigure(fig, scale int) {
	switch fig {
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
		base := experiments.C4
		if scale > 1 {
			base.EventsPerClient /= scale
		}
		res, err := experiments.RunOverheadStudy(experiments.OverheadConfig{Base: base, Reps: 5})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hepnos-bench:", err)
			os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "hepnos-bench: -figure must be 9, 10, 11, 12, or 13")
		os.Exit(2)
	}
}
