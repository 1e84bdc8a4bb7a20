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
}

const (
	// sweepValueSize is the per-op payload in bytes.
	sweepValueSize = 64
	// sweepMaxDelay bounds how long a non-full window may park.
	sweepMaxDelay = 500 * time.Microsecond
)

// BatchSweepPoint is the measurement at one window.
type BatchSweepPoint struct {
	Window int
	*Run
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

// RunBatchSweep measures the same workload at every configured window,
// one run batch-w<window> each. The sweep's numbers are throughput, so
// it runs unmeasured (StageOff) unless its dumps are kept: with out set
// every process traces at full stage, and the diff of the smallest and
// largest window's dumps shows the batch-window segment — the C4
// effect, per request.
func RunBatchSweep(cfg BatchSweepConfig, metricsAddr, out string) (*BatchSweepResult, error) {
	res := &BatchSweepResult{Config: cfg}
	for _, w := range cfg.Windows {
		if w < 1 {
			return nil, fmt.Errorf("experiments: batch window %d", w)
		}
		point, err := runBatchSweepPoint(cfg, w, metricsAddr, out)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

func runBatchSweepPoint(cfg BatchSweepConfig, window int, metricsAddr, out string) (BatchSweepPoint, error) {
	var stage core.Stage
	if out != "" {
		stage = core.StageFull
	}
	var srv, cli *margo.Instance
	s := Scenario{Name: fmt.Sprintf("batch-w%d", window)}
	s.Build = func(c *Cluster) error {
		var err error
		if srv, err = c.Start(ProcessOptions{Mode: margo.ModeServer, Node: "n1", Name: "store", Stage: stage}); err != nil {
			return err
		}
		var pol *batch.Policy
		if window > 1 {
			pol = &batch.Policy{MaxOps: window, MaxDelay: sweepMaxDelay}
		}
		if cli, err = c.Start(ProcessOptions{Mode: margo.ModeClient, Node: "n0", Name: "loader", Batch: pol, Stage: stage}); err != nil {
			return err
		}
		if err := srv.Register("sweep_put", func(ctx *margo.Context) {
			var in sweepArgs
			if err := ctx.GetInput(&in); err != nil {
				ctx.RespondError("decode: %v", err)
				return
			}
			ctx.Respond(mercury.Void{})
		}); err != nil {
			return err
		}
		return cli.RegisterClient("sweep_put")
	}
	s.Drive = func(*Cluster, *Run) error {
		errsByIssuer := make([][]error, cfg.Issuers)
		ults := make([]*abt.ULT, cfg.Issuers)
		for i := range ults {
			ults[i] = cli.Run("sweep-issuer", func(self *abt.ULT) {
				for done := 0; done < cfg.OpsPerIssuer; done += window {
					ins := make([]mercury.Procable, min(window, cfg.OpsPerIssuer-done))
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
		for i, errs := range errsByIssuer {
			for k, err := range errs {
				if err != nil {
					return fmt.Errorf("issuer %d op %d: %w", i, k, err)
				}
			}
		}
		return nil
	}
	var bs margo.BatchStats
	s.Audit = func(*Cluster, *Run) error {
		bs = cli.BatchStats()
		return nil
	}
	run, err := Execute(s, metricsAddr, out)
	if err != nil {
		return BatchSweepPoint{}, err
	}
	total := cfg.Issuers * cfg.OpsPerIssuer
	return BatchSweepPoint{
		Window:        window,
		Run:           run,
		Ops:           total,
		OpsPerSec:     float64(total) / run.WallTime.Seconds(),
		Flushes:       bs.Flushes,
		CoalesceRatio: bs.CoalesceRatio,
		Retries:       bs.Retries,
		FlushReasons:  bs.FlushReasons,
	}, nil
}
