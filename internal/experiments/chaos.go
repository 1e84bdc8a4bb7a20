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
	// fault plan, for the p99-inflation baseline: the run "chaos-clean"
	// beside "chaos-faulted", whose dumps sym diff compares.
	CompareClean bool
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

	// ExpectedEvents is what the workload should have stored.
	ExpectedEvents uint64

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
func RunChaos(cfg ChaosConfig, metricsAddr, out string) (*ChaosResult, error) {
	base := cfg.Base
	res := &ChaosResult{Config: cfg}
	res.ExpectedEvents = uint64(base.TotalClients) * uint64(base.EventsPerClient)

	if cfg.CompareClean {
		clean := base
		clean.Name = "chaos-clean"
		r, err := RunHEPnOS(clean, metricsAddr, out)
		if err != nil {
			return nil, err
		}
		res.Clean = r
		res.P99Clean = putPackedOriginP99(r)
	}

	faulted := base
	faulted.Name = "chaos-faulted"
	faulted.Faults = cfg.Plan()
	// The client-side policy absorbing the faults.
	retry := margo.DefaultRetryPolicy()
	faulted.Retry = &retry
	fr, err := RunHEPnOS(faulted, metricsAddr, out)
	if err != nil {
		return nil, err
	}
	res.Faulted = fr
	res.P99Chaos = putPackedOriginP99(fr)
	if fr.WallTime > 0 {
		res.GoodputEventsPerSec = float64(fr.EventsStored) / fr.WallTime.Seconds()
	}

	// Every attempt (first or retried) records one origin profile entry
	// under the put_packed breadcrumb; first attempts are attempts minus
	// recorded retries.
	bc := core.Breadcrumb(0).Push(sdskv.RPCPutPacked)
	var attempts uint64
	for key, st := range fr.Profile.Origin {
		if key.BC == bc {
			attempts += st.Count
		}
	}
	retries := fr.Counters.Retries
	if first := attempts - retries; attempts > 0 && first > 0 && retries < attempts {
		res.RetryAmplification = float64(attempts) / float64(first)
	} else if attempts > 0 {
		res.RetryAmplification = 1
	}
	return res, nil
}
