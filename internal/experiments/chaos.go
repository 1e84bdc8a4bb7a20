package experiments

import (
	"time"

	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
	"symbiosys/internal/services/sdskv"
)

// ChaosConfig shapes one fault-campaign run: the C2 HEPnOS workload
// replayed under a seeded fault plan with the margo retry policy
// absorbing the injected failures.
type ChaosConfig struct {
	// Base is the service configuration to stress.
	Base HEPnOSConfig

	// Fault plan knobs, applied as the plan's default rule so every link
	// of the deployment takes them.
	DropProb  float64
	DelayProb float64
	Delay     time.Duration
	// Seed drives the plan's deterministic fault schedule.
	Seed uint64

	// CompareClean additionally runs the identical workload without the
	// fault plan, for the p99-inflation baseline.
	CompareClean bool

	// Report, when enabled, renders the run's critical-path reports as
	// the campaign ends: the faulted run's dominant-path flame, and —
	// with CompareClean — the clean-vs-chaos diff localizing the
	// injected fault's segment.
	Report ReportConfig
}

// Plan materializes the config's fault plan.
func (c ChaosConfig) Plan() *na.FaultPlan {
	p := na.NewFaultPlan(c.Seed)
	p.Default = na.FaultRule{
		DropProb:  c.DropProb,
		DelayProb: c.DelayProb,
		Delay:     c.Delay,
	}
	return p
}

// ChaosResult reports how the workload behaved under the fault plan.
type ChaosResult struct {
	Config  ChaosConfig
	Faulted *HEPnOSResult
	// Clean is the no-fault baseline run (nil unless CompareClean).
	Clean *HEPnOSResult

	// ExpectedEvents is what the workload should have stored;
	// LostEvents is the shortfall (the acceptance bar is zero).
	ExpectedEvents uint64
	LostEvents     int64

	// RetryAmplification is attempts per logical request: total origin
	// attempts divided by first attempts, 1.0 when nothing retried.
	RetryAmplification float64

	// GoodputEventsPerSec is successfully stored events over wall time
	// under faults.
	GoodputEventsPerSec float64

	// P99Chaos (and P99Clean when CompareClean) are the put_packed
	// origin-side 99th percentiles; their ratio is the p99 inflation.
	P99Chaos time.Duration
	P99Clean time.Duration

	// ReportPaths lists the analysis reports written for the run (empty
	// unless Config.Report is enabled).
	ReportPaths []string
}

// P99Inflation returns P99Chaos/P99Clean (0 without a clean baseline).
func (r *ChaosResult) P99Inflation() float64 {
	if r.P99Clean <= 0 {
		return 0
	}
	return float64(r.P99Chaos) / float64(r.P99Clean)
}

// putPackedOriginP99 merges the put_packed origin stats across peers
// and returns the 99th percentile latency. Retried attempts each record
// their own profile entry, so the distribution includes failed tries.
func putPackedOriginP99(res *HEPnOSResult) time.Duration {
	if res.Profile == nil {
		return 0
	}
	bc := core.Breadcrumb(0).Push(sdskv.RPCPutPacked)
	var agg core.CallStats
	for key, st := range res.Profile.Origin {
		if key.BC == bc {
			agg.Merge(st)
		}
	}
	return agg.Percentile(99)
}

// RunChaos replays the configured HEPnOS workload under the fault plan
// (and optionally clean) and derives the campaign report.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	base := cfg.Base
	res := &ChaosResult{Config: cfg}
	res.ExpectedEvents = uint64(base.TotalClients) * uint64(base.EventsPerClient)

	var cleanTraces []*core.TraceDump
	if cfg.CompareClean {
		clean, _, traces, err := runHEPnOSInternal(base)
		if err != nil {
			return nil, err
		}
		res.Clean = clean
		res.P99Clean = putPackedOriginP99(clean)
		cleanTraces = traces
	}

	faulted := base
	faulted.Faults = cfg.Plan()
	// The client-side policy absorbing the faults.
	retry := margo.DefaultRetryPolicy()
	faulted.Retry = &retry
	fr, _, chaosTraces, err := runHEPnOSInternal(faulted)
	if err != nil {
		return nil, err
	}
	res.Faulted = fr
	res.LostEvents = int64(res.ExpectedEvents) - int64(fr.EventsStored)
	res.P99Chaos = putPackedOriginP99(fr)
	if fr.WallTime > 0 {
		res.GoodputEventsPerSec = float64(fr.EventsStored) / fr.WallTime.Seconds()
	}

	// Every attempt (first or retried) records one origin profile entry
	// under the put_packed breadcrumb; first attempts are attempts minus
	// recorded retries.
	bc := core.Breadcrumb(0).Push(sdskv.RPCPutPacked)
	var attempts uint64
	if fr.Profile != nil {
		for key, st := range fr.Profile.Origin {
			if key.BC == bc {
				attempts += st.Count
			}
		}
	}
	if first := attempts - fr.Retries; attempts > 0 && first > 0 && fr.Retries < attempts {
		res.RetryAmplification = float64(attempts) / float64(first)
	} else if attempts > 0 {
		res.RetryAmplification = 1
	}

	if cfg.Report.enabled() {
		path, err := cfg.Report.writeFlame("chaos-flame",
			"Chaos campaign: dominant critical paths under faults", chaosTraces)
		if err != nil {
			return nil, err
		}
		res.ReportPaths = append(res.ReportPaths, path)
		if cfg.CompareClean {
			// The clean run is the baseline: the diff localizes the
			// injected fault to its path segment (backoff/unmatched
			// waits dominate the delta) without manual trace reading.
			path, err := cfg.Report.writeDiff("chaos-diff",
				"Chaos campaign: clean vs faulted critical paths", cleanTraces, chaosTraces)
			if err != nil {
				return nil, err
			}
			res.ReportPaths = append(res.ReportPaths, path)
		}
	}
	return res, nil
}
