package experiments

import (
	"fmt"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// This file reruns the paper's C4 effect — batching amortizes the
// per-RPC overhead — as a standalone microstudy over the coalescer:
// the same multi-op workload is driven through ForwardMany at several
// batch windows, window 1 being the plain-Forward baseline. On the
// simulated fabric each wire exchange costs one runtime-timer hop, so
// the throughput curve over the window mirrors the paper's put_packed
// batch-size knob.

// BatchSweepConfig parameterizes one sweep.
type BatchSweepConfig struct {
	// Windows lists the coalescer windows to measure; window 1 runs
	// without a batch policy (plain Forwards).
	Windows []int
	// Issuers is the number of concurrent client ULTs; OpsPerIssuer the
	// operations each issues. A low issuer count makes the unbatched
	// baseline pay the per-RPC wire cost serially, the regime where the
	// paper's C4 batching knob matters; high issuer counts pipeline
	// RPCs and hide it.
	Issuers      int
	OpsPerIssuer int

	// Report, when enabled, turns on full-stage measurement for the
	// sweep (normally it runs unmeasured) and renders per-window
	// dominant-path reports plus a smallest-vs-largest-window diff —
	// the batch-window segment appearing is the C4 effect, per request.
	Report ReportConfig
}

const (
	// sweepValueSize is the per-op payload in bytes.
	sweepValueSize = 64
	// sweepMaxDelay bounds how long a non-full window may park.
	sweepMaxDelay = 500 * time.Microsecond
)

// BatchSweepPoint is the measurement at one window.
type BatchSweepPoint struct {
	Window    int
	WallTime  time.Duration
	Ops       int
	OpsPerSec float64
	// Coalescer accounting for the run (all zero at window 1, which
	// runs without a batch policy).
	Flushes       uint64
	CoalesceRatio float64
	Retries       uint64
	FlushReasons  map[string]uint64
}

// BatchSweepResult is the full sweep.
type BatchSweepResult struct {
	Config BatchSweepConfig
	Points []BatchSweepPoint
	// ReportPaths lists the analysis reports written for the sweep
	// (empty unless Config.Report is enabled).
	ReportPaths []string
}

// Speedup reports a window's throughput relative to the window-1
// baseline (zero when either point is missing).
func (r *BatchSweepResult) Speedup(window int) float64 {
	var base, at float64
	for _, p := range r.Points {
		if p.Window == 1 {
			base = p.OpsPerSec
		}
		if p.Window == window {
			at = p.OpsPerSec
		}
	}
	if base == 0 {
		return 0
	}
	return at / base
}

// sweepArgs is the per-op payload of the sweep workload.
type sweepArgs struct {
	Key   string
	Value []byte
}

func (a *sweepArgs) Proc(p *mercury.Proc) error {
	p.String(&a.Key)
	p.Bytes(&a.Value)
	return p.Err()
}

// RunBatchSweep measures the same workload at every configured window.
func RunBatchSweep(cfg BatchSweepConfig) (*BatchSweepResult, error) {
	res := &BatchSweepResult{Config: cfg}
	tracesByWindow := make(map[int][]*core.TraceDump)
	for _, w := range cfg.Windows {
		if w < 1 {
			return nil, fmt.Errorf("experiments: batch window %d", w)
		}
		point, traces, err := runBatchSweepPoint(cfg, w)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, point)
		tracesByWindow[w] = traces
	}
	if cfg.Report.enabled() {
		for _, w := range cfg.Windows {
			path, err := cfg.Report.writeFlame(fmt.Sprintf("batchsweep-w%d", w),
				fmt.Sprintf("Batch sweep: dominant critical paths at window %d", w),
				tracesByWindow[w])
			if err != nil {
				return nil, err
			}
			res.ReportPaths = append(res.ReportPaths, path)
		}
		if len(cfg.Windows) >= 2 {
			lo, hi := cfg.Windows[0], cfg.Windows[len(cfg.Windows)-1]
			path, err := cfg.Report.writeDiff("batchsweep-diff",
				fmt.Sprintf("Batch sweep: window %d vs window %d critical paths", lo, hi),
				tracesByWindow[lo], tracesByWindow[hi])
			if err != nil {
				return nil, err
			}
			res.ReportPaths = append(res.ReportPaths, path)
		}
	}
	return res, nil
}

func runBatchSweepPoint(cfg BatchSweepConfig, window int) (BatchSweepPoint, []*core.TraceDump, error) {
	cluster := NewCluster(DefaultFabric())
	defer cluster.Shutdown()

	// The sweep normally runs unmeasured (StageOff): its numbers are
	// throughput, and measurement would tax the hot path it studies.
	// Reporting needs per-request traces, so it flips on full staging.
	var stage core.Stage
	if cfg.Report.enabled() {
		stage = core.StageFull
	}

	srv, err := cluster.Start(ProcessOptions{Mode: margo.ModeServer, Node: "n1", Name: "store", Stage: stage})
	if err != nil {
		return BatchSweepPoint{}, nil, err
	}
	var pol *batch.Policy
	if window > 1 {
		pol = &batch.Policy{MaxOps: window, MaxDelay: sweepMaxDelay}
	}
	cli, err := cluster.Start(ProcessOptions{Mode: margo.ModeClient, Node: "n0", Name: "loader", Batch: pol, Stage: stage})
	if err != nil {
		return BatchSweepPoint{}, nil, err
	}

	if err := srv.Register("sweep_put", func(ctx *margo.Context) {
		var in sweepArgs
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		ctx.Respond(mercury.Void{})
	}); err != nil {
		return BatchSweepPoint{}, nil, err
	}
	if err := cli.RegisterClient("sweep_put"); err != nil {
		return BatchSweepPoint{}, nil, err
	}

	total := cfg.Issuers * cfg.OpsPerIssuer
	errsByIssuer := make([][]error, cfg.Issuers)
	ults := make([]*abt.ULT, cfg.Issuers)
	start := time.Now()
	for i := 0; i < cfg.Issuers; i++ {
		i := i
		ults[i] = cli.Run("sweep-issuer", func(self *abt.ULT) {
			for done := 0; done < cfg.OpsPerIssuer; done += window {
				n := window
				if rest := cfg.OpsPerIssuer - done; n > rest {
					n = rest
				}
				ins := make([]mercury.Procable, n)
				for k := range ins {
					ins[k] = &sweepArgs{
						Key:   fmt.Sprintf("i%02d-op%04d", i, done+k),
						Value: make([]byte, sweepValueSize),
					}
				}
				errsByIssuer[i] = append(errsByIssuer[i], cli.ForwardMany(self, srv.Addr(), "sweep_put", ins, nil)...)
			}
		})
	}
	for _, u := range ults {
		u.Join(nil)
	}
	wall := time.Since(start)
	for i, errs := range errsByIssuer {
		for k, err := range errs {
			if err != nil {
				return BatchSweepPoint{}, nil, fmt.Errorf("experiments: sweep window %d, issuer %d op %d: %w", window, i, k, err)
			}
		}
	}
	if !cluster.Settle() {
		return BatchSweepPoint{}, nil, fmt.Errorf("experiments: sweep window %d did not quiesce", window)
	}

	var traces []*core.TraceDump
	if cfg.Report.enabled() {
		_, traces = cluster.Collect()
	}
	bs := cli.BatchStats()
	return BatchSweepPoint{
		Window:        window,
		WallTime:      wall,
		Ops:           total,
		OpsPerSec:     float64(total) / wall.Seconds(),
		Flushes:       bs.Flushes,
		CoalesceRatio: bs.CoalesceRatio,
		Retries:       bs.Retries,
		FlushReasons:  bs.FlushReasons,
	}, traces, nil
}
