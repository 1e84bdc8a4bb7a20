// Command hepnos-bench runs the paper's case studies on the simulated
// platform and prints the series each figure plots: the ior+Mobject
// study (Figures 5 and 6), the Sonata batch store (Figure 7), the
// HEPnOS configurations (Table IV, Figures 9–13), and the scenarios
// beyond the paper. With -out D every run writes its per-process
// profile/trace dumps to D/<run>, the directory the sym tool reads.
//
// Usage:
//
//	hepnos-bench                       # run all seven configurations
//	hepnos-bench -config C2            # one configuration
//	hepnos-bench -figure 5|6           # ior+Mobject: 10 clients, 8 x 16 KiB
//	hepnos-bench -figure 7             # Sonata: 50,000 records, batch 5,000
//	hepnos-bench -figure 9|10|11|12|13 # 9: the C1-vs-C2 study
//	hepnos-bench -scale 4              # divide event counts by 4 (floor 64)
//	hepnos-bench -config C1 -metrics :9100   # live /metrics + /snapshot
//	hepnos-bench -run chaos [-config C3]     # C2 (or C3) under the seeded fault plan
//	hepnos-bench -run overload         # overload storm + recovery
//	hepnos-bench -run elastic          # elastic scale-out 4 -> 16 -> 8
//	hepnos-bench -run batch            # batch-window sweep (C4 effect)
//
// Runs are named C1..C7, mobject, sonata, C4-stage<N>-r<rep> (Figure
// 13), chaos-clean, chaos-faulted, overload, elastic and batch-w1|8|64
// (batch runs unmeasured unless -out keeps its dumps). A run's reports
// are sym's over its dumps: after -run chaos -out D, `sym trace -dir
// D/chaos-faulted -flame` and `sym diff -before D/chaos-clean -dir
// D/chaos-faulted`. Each run ends with "run <name>: wall ...; graceful
// drain completed; audit: N acked-then-lost ops"; the exit status is 1
// when a run or its audit fails, loses an acknowledged operation or does
// not drain, 2 for a command line it cannot run. SIGINT or SIGTERM
// drains the live cluster first.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
	"symbiosys/internal/na"
)

func main() {
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is a command line hepnos-bench cannot run (exit status 2).
type usageError string

func (u usageError) Error() string { return string(u) }

// run executes one hepnos-bench command line and returns its exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hepnos-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "", "run one configuration (C1..C7); with -run chaos, the one faulted (default C2)")
	figure := fs.Int("figure", 0, "reproduce one figure (5, 6, 7, 9, 10, 11, 12, or 13)")
	scenario := fs.String("run", "", "run one scenario beyond the paper: chaos, overload, elastic, or batch")
	scale := fs.Int("scale", 1, "divide per-client event counts by this factor (floor 64)")
	out := fs.String("out", "", "write each run's per-process dumps to this directory's <run> subdirectory")
	metrics := fs.String("metrics", "", "serve live /metrics + /snapshot on this address during runs (e.g. :9100)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	b := &bench{w: stdout, scale: *scale, out: *out, metrics: *metrics}
	var err error
	switch {
	case fs.NArg() > 0:
		err = usageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	case *scenario != "":
		err = b.scenario(*scenario, *config)
	case *config != "":
		var cfg experiments.HEPnOSConfig
		if cfg, err = lookup(*config); err == nil {
			_, err = b.hepnos(cfg)
		}
	case *figure != 0:
		err = b.figure(*figure)
	default:
		for _, cfg := range experiments.TableIV() {
			if _, err = b.hepnos(cfg); err != nil {
				break
			}
		}
	}
	var bad usageError
	switch {
	case errors.As(err, &bad):
		fmt.Fprintf(stderr, "hepnos-bench: %s\n", bad)
		return 2
	case err != nil:
		fmt.Fprintln(stderr, "hepnos-bench:", err)
		return 1
	case b.failed:
		fmt.Fprintln(stderr, "hepnos-bench: a run lost acknowledged operations or did not drain cleanly")
		return 1
	}
	return 0
}

// bench is one command line's settings and output.
type bench struct {
	w            io.Writer
	scale        int
	out, metrics string
	failed       bool // a run lost acknowledged operations or did not drain
}

func lookup(name string) (experiments.HEPnOSConfig, error) {
	for _, cfg := range experiments.TableIV() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg, nil
		}
	}
	return experiments.HEPnOSConfig{}, usageError(fmt.Sprintf("unknown configuration %q (want C1..C7)", name))
}

// done prints the lines every run shares — phases, counters, telemetry,
// dump directory, wall time, drain and audit — and applies the exit
// rule: a run that lost acknowledged operations or did not drain
// cleanly fails the command.
func (b *bench) done(r *experiments.Run) {
	for _, p := range r.Phases {
		fmt.Fprintf(b.w, "  %-12s %4d/%d acked (%.1f%%)  p99 %v\n",
			p.Name, p.Acked, p.Ops, 100*p.SuccessRate(), p.P99.Round(time.Microsecond))
	}
	c := r.Counters
	if f := c.Faults; f != (na.FaultStats{}) {
		fmt.Fprintf(b.w, "  injected: drops %d  dups %d  delays %d  refusals %d\n", f.Drops, f.Dups, f.Delays, f.Refusals)
	}
	if c.Retries+c.Timeouts+c.Exhausted > 0 {
		fmt.Fprintf(b.w, "  client resilience: retries %d  timeouts %d  exhausted %d\n",
			c.Retries, c.Timeouts, c.Exhausted)
	}
	if c.Shed+c.Expired+c.BreakerTrips+c.BreakerFastFails > 0 {
		fmt.Fprintf(b.w, "  overload control: shed %d  expired %d  breaker trips %d  local fast-fails %d\n",
			c.Shed, c.Expired, c.BreakerTrips, c.BreakerFastFails)
	}
	if r.MetricsAddr != "" {
		fmt.Fprintf(b.w, "  served live telemetry on http://%s/metrics\n", r.MetricsAddr)
	}
	if b.out != "" {
		fmt.Fprintf(b.w, "  dumps: %d profile and %d trace dumps in %s\n",
			len(r.ProfileDumps), len(r.TraceDumps), b.dir(r.Name))
	}
	drain := "graceful drain completed"
	if r.DrainErr != nil {
		drain = "drain: " + r.DrainErr.Error()
	}
	fmt.Fprintf(b.w, "  run %s: wall %v; %s; audit: %d acked-then-lost ops\n",
		r.Name, r.WallTime.Round(time.Millisecond), drain, r.LostAcked)
	b.failed = b.failed || r.LostAcked != 0 || r.DrainErr != nil
}

// dir is where the run name's dumps go.
func (b *bench) dir(name string) string { return filepath.Join(b.out, name) }

// reports names the sym command lines that render the after run's flame
// and its diff against the before run, when their dumps were written.
func (b *bench) reports(before, after *experiments.Run) {
	if b.out != "" {
		fmt.Fprintf(b.w, "  reports: sym trace -dir %s -flame; sym diff -before %s -dir %s\n",
			b.dir(after.Name), b.dir(before.Name), b.dir(after.Name))
	}
}

// hepnos runs one Table IV configuration, scaled, and prints it.
func (b *bench) hepnos(cfg experiments.HEPnOSConfig) (*experiments.HEPnOSResult, error) {
	res, err := experiments.RunHEPnOS(cfg.Scaled(b.scale), b.metrics, b.out)
	if err != nil {
		return nil, err
	}
	cfg, c := res.Config, res.Components
	fmt.Fprintf(b.w, "\n=== %s (clients %d, servers %d, batch %d, threads %d, dbs %d, OFI %d, progress-ES %v)\n",
		cfg.Name, cfg.TotalClients, cfg.TotalServers, cfg.BatchSize, cfg.Threads, cfg.Databases,
		cfg.OFIMaxEvents, cfg.ClientProgressThread)
	fmt.Fprintf(b.w, "  events %d   put_packed RPCs %d   trace samples %d\n",
		res.EventsStored, res.Unaccounted.Count, res.Traces.NumEvents())
	if res.Traces.Dropped > 0 {
		fmt.Fprintf(b.w, "  WARNING: %d trace events dropped at capacity\n", res.Traces.Dropped)
	}
	fmt.Fprintf(b.w, "  cumulative target RPC execution %v (Fig 9 bar):\n", res.CumTargetExec.Round(time.Millisecond))
	fmt.Fprintf(b.w, "    handler %v (%.1f%%)  exec %v  input-deser %v  rdma %v  target-cb %v\n",
		time.Duration(c[core.CompHandler]).Round(time.Millisecond), 100*res.HandlerFraction(),
		time.Duration(c[core.CompTargetExec]).Round(time.Millisecond),
		time.Duration(c[core.CompInputDeser]).Round(time.Millisecond),
		time.Duration(c[core.CompRDMA]).Round(time.Millisecond),
		time.Duration(c[core.CompTargetCB]).Round(time.Millisecond))
	fmt.Fprintf(b.w, "  cumulative origin execution %v; unaccounted %v (%.1f%%) (Fig 11 bar)\n",
		res.CumOriginExec.Round(time.Millisecond),
		time.Duration(res.Unaccounted.Unaccount).Round(time.Millisecond),
		100*res.Unaccounted.UnaccountedFraction())
	fmt.Fprintf(b.w, "  blocked ULTs: %d samples, max %d (Fig 10 scatter)\n",
		len(res.BlockedSeries), res.MaxBlocked())
	fmt.Fprintf(b.w, "  ofi events read: %d samples, at-cap %.1f%% of passes (Fig 12 series)\n",
		len(res.OFISeries), 100*res.OFIAtCapFraction())
	fmt.Fprintf(b.w, "  dominant callpath latency percentiles (two-per-octave histogram):\n")
	for _, row := range res.Profile.DominantCallpaths(3) {
		fmt.Fprintf(b.w, "    %-28s n=%-8d p50 %-10v p95 %-10v p99 %v\n",
			row.Name, row.Count,
			row.Percentile(50).Round(time.Microsecond),
			row.Percentile(95).Round(time.Microsecond),
			row.Percentile(99).Round(time.Microsecond))
	}
	b.done(res.Run)
	return res, nil
}

// scenario runs one of the scenarios beyond the paper.
func (b *bench) scenario(name, config string) error {
	switch name {
	case "chaos":
		cfg, err := lookup(cmp.Or(config, "C2"))
		if err != nil {
			return err
		}
		return b.chaos(cfg)
	case "overload":
		return b.overload()
	case "elastic":
		return b.elastic()
	case "batch":
		return b.batchSweep()
	}
	return usageError(fmt.Sprintf("unknown -run %q (want chaos, overload, elastic, or batch)", name))
}

func (b *bench) chaos(base experiments.HEPnOSConfig) error {
	res, err := experiments.RunChaos(experiments.ChaosConfig{Base: base.Scaled(b.scale),
		DropProb: 0.01, DelayProb: 0.05, Delay: 5 * time.Millisecond, Seed: 42, CompareClean: true}, b.metrics, b.out)
	if err != nil {
		return err
	}
	f, cfg := res.Faulted, res.Config
	fmt.Fprintf(b.w, "\n=== chaos %s (drop %.2f%%, delay %v@%.0f%%, seed %d)\n",
		base.Name, 100*cfg.DropProb, cfg.Delay, 100*cfg.DelayProb, cfg.Seed)
	fmt.Fprintf(b.w, "  operations: %d/%d stored; goodput %.0f events/s  retry amplification %.3fx\n",
		f.EventsStored, res.ExpectedEvents, res.GoodputEventsPerSec, res.RetryAmplification)
	fmt.Fprintf(b.w, "  wall time: clean %v -> chaos %v\n",
		res.Clean.WallTime.Round(time.Millisecond), f.WallTime.Round(time.Millisecond))
	fmt.Fprintf(b.w, "  put_packed origin p99: clean %v -> chaos %v (%.2fx inflation)\n",
		res.P99Clean.Round(time.Microsecond), res.P99Chaos.Round(time.Microsecond), res.P99Inflation())
	b.done(res.Clean.Run)
	b.done(f.Run)
	b.reports(res.Clean.Run, f.Run)
	return nil
}

func (b *bench) batchSweep() error {
	res, err := experiments.RunBatchSweep(experiments.BatchSweepConfig{
		Windows: []int{1, 8, 64}, Issuers: 2, OpsPerIssuer: 512,
	}, b.metrics, b.out)
	if err != nil {
		return err
	}
	cfg := res.Config
	fmt.Fprintf(b.w, "\n=== batch window sweep (%d issuers x %d ops; paper C4 effect)\n",
		cfg.Issuers, cfg.OpsPerIssuer)
	for _, p := range res.Points {
		line := fmt.Sprintf("  window %3d: %8.0f ops/s  wall %-10v", p.Window, p.OpsPerSec,
			p.WallTime.Round(10*time.Microsecond))
		if p.Window == 1 {
			fmt.Fprintf(b.w, "%s (unbatched baseline)\n", line)
		} else {
			// A map prints sorted by key: the flush-reason histogram.
			fmt.Fprintf(b.w, "%s %.1fx speedup; %d flushes, coalesce %.1f ops/flush %s\n", line, res.Speedup(p.Window),
				p.Flushes, p.CoalesceRatio, strings.TrimPrefix(fmt.Sprint(p.FlushReasons), "map"))
		}
		if p.Retries > 0 {
			fmt.Fprintf(b.w, "              %d batch retries\n", p.Retries)
		}
		b.done(p.Run)
	}
	b.reports(res.Points[0].Run, res.Points[len(res.Points)-1].Run)
	return nil
}

func (b *bench) overload() error {
	res, err := experiments.RunOverload(experiments.OverloadConfig{StormOps: 40, RecoveryOps: 20}, b.metrics, b.out)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.w, "\n=== overload storm (%d clients x %d issuers, %d ops each, deadline %v; server %d streams, %v/op, max in-flight %d)\n",
		experiments.StormClients, experiments.StormIssuersPerClient, res.Config.StormOps, experiments.StormDeadline,
		experiments.StormHandlerStreams, time.Duration(experiments.StormHandlerCost), experiments.StormMaxInFlight)
	storm := res.Phases[0]
	fmt.Fprintf(b.w, "  shed rate %.1f%% of storm ops; handler queue high-watermark %d (cap %d)\n",
		100*float64(res.Counters.Shed)/float64(storm.Ops), res.QueueHWM, experiments.StormMaxInFlight)
	b.done(res.Run)
	return nil
}

func (b *bench) elastic() error {
	res, err := experiments.RunElastic(experiments.ElasticConfig{
		StartNodes: 4, PeakNodes: 16, EndNodes: 8,
		IssuersPerClient: 4,
		OpsPerPhase:      60,
	}, b.metrics, b.out)
	if err != nil {
		return err
	}
	cfg := res.Config
	fmt.Fprintf(b.w, "\n=== elastic scale-out %d -> %d -> %d nodes (%d clients x %d issuers, %d ops/phase)\n",
		cfg.StartNodes, cfg.PeakNodes, cfg.EndNodes,
		experiments.ElasticClients, cfg.IssuersPerClient, cfg.OpsPerPhase)
	fmt.Fprintf(b.w, "  migration: %d keys out, %d in; %d dual-writes, %d read-throughs, %d redirects, %d wrong routes\n",
		res.KeysMigratedOut, res.KeysMigratedIn, res.DualWrites,
		res.ReadThroughs, res.Redirects, res.WrongRoutes)
	fmt.Fprintf(b.w, "  p99 under migration %v vs steady %v; %d sdskv_migrate_* trace spans\n",
		res.MigrationP99().Round(time.Microsecond), res.SteadyP99().Round(time.Microsecond),
		res.MigrateSpans)
	fmt.Fprintf(b.w, "  final spread over %d nodes:\n", len(res.FinalSpread))
	addrs := make([]string, 0, len(res.FinalSpread))
	for a := range res.FinalSpread {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		fmt.Fprintf(b.w, "    %-24s %d pairs\n", a, res.FinalSpread[a])
	}
	b.done(res.Run)
	return nil
}

// mobject runs the ior+Mobject study at the paper's shape (§V-A2: ten
// colocated clients) and prints Figure 6's callpaths and Figure 5's
// write op.
func (b *bench) mobject() error {
	cfg := experiments.MobjectConfig{Clients: 10, Segments: 8, TransferSize: 16 << 10}
	res, err := experiments.RunMobjectIOR(cfg, b.metrics, b.out)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.w, "ior+Mobject: %d clients x %d segments x %d B, wall %v\n",
		cfg.Clients, cfg.Segments, cfg.TransferSize, res.WallTime.Round(time.Millisecond))
	fmt.Fprintln(b.w, "\nTop 5 dominant callpaths by cumulative latency (Figure 6):")
	for i, row := range res.Dominant {
		fmt.Fprintf(b.w, "  [%d] %-55s calls %4d  cum %10v  mean %v\n",
			i+1, row.Name, row.Count,
			time.Duration(row.CumNanos).Round(time.Microsecond), row.Mean().Round(time.Microsecond))
	}
	fmt.Fprintf(b.w, "\nOne mobject_write_op request (%#x) decomposes into %d discrete "+
		"microservice calls (Figure 5; paper: 12):\n",
		res.WriteTraceRequestID, res.NestedWriteCalls())
	for _, s := range res.WriteSpans {
		if s.Kind == "SERVER" {
			fmt.Fprintf(b.w, "  %-28s on %-14s dur %v\n",
				s.RPCName, s.Entity, time.Duration(s.DurNanos).Round(time.Microsecond))
		}
	}
	b.done(res.Run)
	if b.out != "" {
		fmt.Fprintf(b.w, "its Zipkin v2 trace: sym trace -dir %s -req %#x -zipkin write_op.json\n",
			b.dir(res.Name), res.WriteTraceRequestID)
	}
	return nil
}

// sonata runs the Sonata batch store at the paper's shape (§V-B) and
// prints how the target's cumulative execution maps to steps (Figure 7).
func (b *bench) sonata() error {
	cfg := experiments.SonataConfig{Records: 50_000, BatchSize: 5_000, RecordSize: 256}
	res, err := experiments.RunSonata(cfg, b.metrics, b.out)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.w, "Sonata: %d records, batch %d, ~%d B/record, %d RPC calls, wall %v\n",
		cfg.Records, cfg.BatchSize, cfg.RecordSize, res.RPCCalls, res.WallTime.Round(time.Millisecond))
	fmt.Fprintln(b.w, "\nCumulative target execution breakdown (Figure 7):")
	total := res.Handler + res.RDMA + res.TargetExec
	row := func(name string, v uint64) {
		fmt.Fprintf(b.w, "  %-28s %12v  %5.1f%%\n",
			name, time.Duration(v).Round(time.Microsecond), 100*float64(v)/float64(total))
	}
	row("target handler time", res.Handler)
	row("internal RDMA transfer", res.RDMA)
	row("input deserialization", res.InputDeser)
	row("execution (exclusive)", res.ExecExclusive)
	row("output serialization", res.OutputSer)
	fmt.Fprintf(b.w, "\ninput deserialization share: %.1f%% (paper: 27%%); internal RDMA: %.1f%% (paper: low)\n",
		100*res.DeserFraction(), 100*res.RDMAFraction())
	b.done(res.Run)
	return nil
}

func (b *bench) figure(fig int) error {
	switch fig {
	case 5, 6:
		return b.mobject()
	case 7:
		return b.sonata()
	case 9, 10, 11, 12:
		var rs []*experiments.HEPnOSResult
		for _, cfg := range map[int][]experiments.HEPnOSConfig{
			9: {experiments.C1, experiments.C2}, 10: {experiments.C2, experiments.C3},
			11: {experiments.C4, experiments.C5, experiments.C6, experiments.C7},
		}[min(fig, 11)] {
			r, err := b.hepnos(cfg)
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
		switch fig {
		case 9:
			fmt.Fprintf(b.w, "\nFigure 9: C1 handler share %.1f%% (paper 26.6%%); C2 %.1f%% (paper 14%%); "+
				"C2 improves cumulative target execution by %.1f%% (paper 53.3%%)\n",
				100*rs[0].HandlerFraction(), 100*rs[1].HandlerFraction(),
				100*(1-float64(rs[1].CumTargetExec)/float64(rs[0].CumTargetExec)))
		case 10:
			fmt.Fprintf(b.w, "\nFigure 10: C2 issued %d RPCs (max blocked %d); C3 issued %d (max blocked %d); "+
				"C3 improves by %.1f%% (paper 28.5%%)\n",
				rs[0].Unaccounted.Count, rs[0].MaxBlocked(), rs[1].Unaccounted.Count, rs[1].MaxBlocked(),
				100*(1-float64(rs[1].CumTargetExec)/float64(rs[0].CumTargetExec)))
		default:
			r4, r5, r6, r7 := rs[0], rs[1], rs[2], rs[3]
			mean := func(r *experiments.HEPnOSResult) time.Duration {
				return r.CumOriginExec / time.Duration(max(r.Unaccounted.Count, 1))
			}
			fmt.Fprintf(b.w, "\nFigure 11: C4 is %.0fx faster than C5 in wall time (paper ~475x at full scale);\n"+
				"  per-RPC origin execution C5 %v -> C6 %v (%.0f%% better; paper >40%%) -> C7 %v (%.0f%% better; paper 75%%)\n",
				float64(r5.WallTime)/float64(r4.WallTime), mean(r5).Round(time.Microsecond), mean(r6).Round(time.Microsecond),
				100*(1-float64(mean(r6))/float64(mean(r5))), mean(r7).Round(time.Microsecond), 100*(1-float64(mean(r7))/float64(mean(r6))))
			fmt.Fprintf(b.w, "Figure 12: at-cap fraction C4 %.2f, C5 %.2f (pinned), C6 %.2f, C7 %.2f (drained)\n",
				r4.OFIAtCapFraction(), r5.OFIAtCapFraction(), r6.OFIAtCapFraction(), r7.OFIAtCapFraction())
		}
	case 13:
		res, err := experiments.RunOverheadStudy(experiments.OverheadConfig{Base: experiments.C4.Scaled(b.scale), Reps: 5}, b.metrics, b.out)
		if err != nil {
			return err
		}
		fmt.Fprintln(b.w, "Figure 13: data-loader execution time per measurement stage (5 reps):")
		for _, st := range res.Stages {
			fmt.Fprintf(b.w, "  %-12s mean %v  min %v  max %v  trace samples %d\n", st.Stage, st.Mean.Round(time.Millisecond),
				st.Min.Round(time.Millisecond), st.Max.Round(time.Millisecond), st.TraceSamples)
		}
		fmt.Fprintf(b.w, "  full-support overhead vs baseline: %.2fx (paper: indistinguishable from variation)\n",
			res.OverheadVsBaseline(core.StageFull))
		for _, st := range res.Stages {
			for _, r := range st.Runs {
				b.done(r)
			}
		}
	default:
		return usageError("-figure must be 5, 6, 7, 9, 10, 11, 12, or 13")
	}
	return nil
}
