package experiments

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
)

// Scenario is one experiment in the shape every study shares. Build
// deploys processes and services on a fresh cluster; Drive runs the load
// and is timed as the run's wall time; Audit checks what the load left
// behind once the cluster is idle. A scenario carries no tunables: its
// constructor closes over them and over the state the three steps
// share. Audit may be nil.
type Scenario struct {
	Name  string
	Build func(c *Cluster) error
	Drive func(c *Cluster, r *Run) error
	Audit func(c *Cluster, r *Run) error
}

// Run is what Execute makes of every scenario: the measured facts all
// studies share. The figure-specific numbers are the studies' own, in
// results that point at their Run.
type Run struct {
	Name     string
	WallTime time.Duration

	// Phases are the load phases Drive recorded, in order.
	Phases []Phase

	// LostAcked counts operations a client saw acknowledged that the
	// audit did not find stored; the bar is zero.
	LostAcked int64

	// The run's per-process dumps and their merged views.
	Profile      *analysis.MergedProfile
	Traces       *analysis.TraceSet
	ProfileDumps []*core.ProfileDump
	TraceDumps   []*core.TraceDump

	Counters Counters

	// MetricsAddr is the bound live-telemetry address ("" without one);
	// MetricsText the /metrics exposition rendered before the drain.
	MetricsAddr string
	MetricsText string

	// DrainErr is the outcome of the graceful drain that ends the run.
	DrainErr error

	acked []ackedOp // every phase's acknowledged puts, for Audit
}

// Phase is one load phase: operations issued and acknowledged, and the
// 99th percentile of the acknowledged ones' latency.
type Phase struct {
	Name  string
	Ops   uint64
	Acked uint64
	P99   time.Duration
}

// SuccessRate is acked over issued (0 for an empty phase).
func (p Phase) SuccessRate() float64 {
	if p.Ops == 0 {
		return 0
	}
	return float64(p.Acked) / float64(p.Ops)
}

// Counters are the resilience and overload counters summed over every
// process of a run, and the faults the fabric injected.
type Counters struct {
	Retries, Timeouts, Exhausted                  uint64
	Shed, Expired, BreakerTrips, BreakerFastFails uint64
	Faults                                        na.FaultStats
}

// ackedOp is one acknowledged put.
type ackedOp struct {
	key, value string
}

// drainTimeout bounds the graceful drain that ends every run.
const drainTimeout = 5 * time.Second

// settleTimeout bounds how long a run's processes may take to go idle
// after Drive returns.
var settleTimeout = 10 * time.Second

// Execute runs one scenario on a fresh cluster: it serves live telemetry
// on metricsAddr (none if empty), builds, times Drive, waits for the
// cluster to go idle, audits, sums the counters, captures /metrics,
// collects and merges the dumps — and, when out is set, writes them to
// out/<name>, the directory sym reads — then drains the cluster. A run
// that does not go idle, or whose audit fails, is an error naming the
// scenario; a drain error is the Run's DrainErr.
func Execute(s Scenario, metricsAddr, out string) (*Run, error) {
	c := NewCluster(DefaultFabric())
	r, err := c.execute(s, metricsAddr, out)
	drainErr := c.Drain(drainTimeout)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", s.Name, err)
	}
	r.DrainErr = drainErr
	return r, nil
}

func (c *Cluster) execute(s Scenario, metricsAddr, out string) (*Run, error) {
	r := &Run{Name: s.Name}
	var err error
	if r.MetricsAddr, err = c.ServeTelemetry(metricsAddr); err != nil {
		return nil, err
	}
	if err := s.Build(c); err != nil {
		return nil, err
	}
	start := time.Now()
	err = s.Drive(c, r)
	r.WallTime = time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := c.settle(); err != nil {
		return nil, err
	}
	if s.Audit != nil {
		if err := s.Audit(c, r); err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
	}
	for _, inst := range c.instances {
		rs, ol := inst.RetryStats(), inst.OverloadStats()
		r.Counters.Retries += rs.Retries
		r.Counters.Timeouts += rs.Timeouts
		r.Counters.Exhausted += rs.Exhausted
		r.Counters.Shed += ol.Shed
		r.Counters.Expired += ol.Expired
		r.Counters.BreakerTrips += ol.BreakerTrips
		r.Counters.BreakerFastFails += ol.BreakerFastFails
	}
	r.Counters.Faults = c.Fabric.FaultStats()
	r.MetricsText = c.MetricsText()
	r.ProfileDumps, r.TraceDumps = c.Collect()
	r.Profile = analysis.Merge(r.ProfileDumps)
	r.Traces = analysis.MergeTraces(r.TraceDumps)
	if out != "" {
		if err := WriteDumps(filepath.Join(out, s.Name), r.ProfileDumps, r.TraceDumps); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// settle is where a run's measured part ends: it waits until no process
// has RPCs in flight, then lets the target-side completion callbacks of
// the last responses land. It fails naming the first process still busy
// after settleTimeout.
func (c *Cluster) settle() error {
	deadline := time.Now().Add(settleTimeout)
	for _, inst := range c.instances {
		if !inst.WaitIdle(max(time.Until(deadline), 0)) {
			return fmt.Errorf("did not go idle: %s still has RPCs in flight after %v", inst.Addr(), settleTimeout)
		}
	}
	time.Sleep(20 * time.Millisecond)
	return nil
}

// drivePhase runs the phase name: ops operations on each of issuers ULTs
// on every client, op after op, with pace between them. op returns the
// key and value it stored; each operation's outcome and latency are
// recorded, and an acknowledged one's pair is kept for Audit. It returns
// the first operation's error, if any failed.
func (r *Run) drivePhase(name string, clients []*margo.Instance, issuers, ops int, pace time.Duration,
	op func(self *abt.ULT, client, issuer, i int) (key, value string, err error)) error {
	var (
		mu    sync.Mutex
		lat   core.CallStats
		first error
		wg    sync.WaitGroup
	)
	ph := Phase{Name: name}
	for ci, inst := range clients {
		for k := 0; k < issuers; k++ {
			wg.Add(1)
			inst.Run(fmt.Sprintf("%s-%d", name, k), func(self *abt.ULT) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					t0 := time.Now()
					key, value, err := op(self, ci, k, i)
					d := time.Since(t0)
					mu.Lock()
					ph.Ops++
					if err == nil {
						ph.Acked++
						lat.Record(d)
						r.acked = append(r.acked, ackedOp{key, value})
					} else if first == nil {
						first = err
					}
					mu.Unlock()
					if pace > 0 {
						self.Sleep(pace)
					}
				}
			})
		}
	}
	wg.Wait()
	ph.P99 = lat.Percentile(99)
	r.Phases = append(r.Phases, ph)
	return first
}

// onULT runs fn as one ULT on inst and returns its error.
func onULT(inst *margo.Instance, name string, fn func(self *abt.ULT) error) error {
	var err error
	if jerr := inst.Run(name, func(self *abt.ULT) { err = fn(self) }).Join(nil); jerr != nil {
		return jerr
	}
	return err
}
