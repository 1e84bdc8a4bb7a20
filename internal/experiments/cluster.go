// Package experiments builds the paper's experimental setups on the
// simulated platform and reruns every case study: the ior+Mobject
// dominant-callpath and trace studies (Figures 5–6), the Sonata
// serialization breakdown (Figure 7), the HEPnOS configuration studies
// C1–C7 (Table IV, Figures 9–12), the overhead evaluation (Figure 13),
// and the chaos, overload, elastic and batch-window scenarios. Every
// study is one or more Scenarios run through Execute, which returns the
// common Run (and, given a directory, writes the dumps sym reads); a
// study's result keeps its figure's numbers and points at its Runs.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/telemetry"
)

// Cluster is one virtual deployment: a fabric plus the Margo instances
// of every (virtual) process, tracked for teardown and dump collection.
type Cluster struct {
	Fabric    *na.Fabric
	instances []*margo.Instance

	// exposer, when ServeTelemetry was given an address, serves every
	// process started after the call.
	exposer *telemetry.Exposer
}

// NewCluster creates a cluster over a fabric with the given cost model.
func NewCluster(cfg na.Config) *Cluster {
	c := &Cluster{Fabric: na.NewFabric(cfg)}
	registerCluster(c)
	return c
}

// ProcessOptions describes one virtual process to start.
type ProcessOptions struct {
	Mode                margo.Mode
	Node                string
	Name                string
	HandlerStreams      int
	DedicatedProgressES bool
	Stage               core.Stage
	OFIMaxEvents        int
	// Retry installs a client-side resilience policy on the process
	// (margo.Options.Retry); nil keeps single-attempt forwards.
	Retry *margo.RetryPolicy
	// Overload installs server-side admission control on the process
	// (margo.Options.Overload); nil admits unconditionally.
	Overload *margo.OverloadPolicy
	// Batch installs the client-side coalescer (margo.Options.Batch);
	// nil makes ForwardMany degrade to plain Forwards.
	Batch *batch.Policy
}

// Start launches a virtual process on the cluster.
func (c *Cluster) Start(opts ProcessOptions) (*margo.Instance, error) {
	inst, err := margo.New(margo.Options{
		Mode:                opts.Mode,
		Node:                opts.Node,
		Name:                opts.Name,
		Fabric:              c.Fabric,
		Mercury:             mercury.Config{OFIMaxEvents: opts.OFIMaxEvents},
		HandlerStreams:      opts.HandlerStreams,
		DedicatedProgressES: opts.DedicatedProgressES,
		Stage:               opts.Stage,
		Retry:               opts.Retry,
		Overload:            opts.Overload,
		Batch:               opts.Batch,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: start %s/%s: %w", opts.Node, opts.Name, err)
	}
	c.instances = append(c.instances, inst)
	if c.exposer != nil {
		c.exposer.Register(inst)
	}
	return inst, nil
}

// ServeTelemetry serves /metrics + /snapshot on addr (":0" picks a free
// port) over every process started after the call, returning the bound
// address. Each request reads the processes at that moment. An empty
// addr leaves telemetry off and returns "". Call before Start.
func (c *Cluster) ServeTelemetry(addr string) (string, error) {
	if addr == "" {
		return "", nil
	}
	c.exposer = telemetry.NewExposer()
	bound, err := c.exposer.Serve(addr)
	if err != nil {
		return "", fmt.Errorf("experiments: serve metrics: %w", err)
	}
	return bound, nil
}

// MetricsText renders the /metrics exposition a scrape would see now
// ("" without telemetry).
func (c *Cluster) MetricsText() string {
	if c.exposer == nil {
		return ""
	}
	var b strings.Builder
	c.exposer.WriteMetrics(&b)
	return b.String()
}

// Instances returns every process started on the cluster.
func (c *Cluster) Instances() []*margo.Instance { return c.instances }

// Shutdown tears down every process (and the metrics endpoint, if
// serving), returning the first teardown or sink-flush error.
func (c *Cluster) Shutdown() error {
	var first error
	if c.exposer != nil {
		if err := c.exposer.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, inst := range c.instances {
		if err := inst.Shutdown(); err != nil && first == nil {
			first = err
		}
	}
	unregisterCluster(c)
	return first
}

// Drain gracefully quiesces the cluster: every instance stops admitting
// new requests (clients first, so their in-flight forwards complete
// against still-serving providers, then servers), waits up to timeout
// for in-flight work, and tears down. The metrics endpoint stays up
// until the last instance has drained so the draining gauge is
// scrapeable during the window. Returns the first drain error (a
// context deadline means the drain was dirty: in-flight work was
// abandoned).
func (c *Cluster) Drain(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var first error
	// Reverse start order: experiments start servers before clients, so
	// this drains clients first — their in-flight forwards complete
	// against still-serving providers — then quiesces the servers.
	for i := len(c.instances) - 1; i >= 0; i-- {
		if err := c.instances[i].Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	if c.exposer != nil {
		if err := c.exposer.Close(); err != nil && first == nil {
			first = err
		}
	}
	unregisterCluster(c)
	return first
}

// Cluster registry: live clusters are tracked so process-level signal
// handlers (hepnos-bench, symmon) can drain whatever is running when
// SIGINT/SIGTERM arrives, without threading the cluster through every
// call chain.
var (
	activeMu       sync.Mutex
	activeClusters []*Cluster
)

func registerCluster(c *Cluster) {
	activeMu.Lock()
	activeClusters = append(activeClusters, c)
	activeMu.Unlock()
}

func unregisterCluster(c *Cluster) {
	activeMu.Lock()
	for i, ac := range activeClusters {
		if ac == c {
			activeClusters = append(activeClusters[:i], activeClusters[i+1:]...)
			break
		}
	}
	activeMu.Unlock()
}

// DrainActive drains every live cluster (newest first, so nested or
// later deployments quiesce before the ones they depend on), returning
// the first error. Intended for signal handlers.
func DrainActive(timeout time.Duration) error {
	activeMu.Lock()
	clusters := make([]*Cluster, len(activeClusters))
	copy(clusters, activeClusters)
	activeMu.Unlock()
	var first error
	for i := len(clusters) - 1; i >= 0; i-- {
		if err := clusters[i].Drain(timeout); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitIdle blocks until no process has RPCs in flight.
func (c *Cluster) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for _, inst := range c.instances {
		remain := time.Until(deadline)
		if remain <= 0 || !inst.WaitIdle(remain) {
			return false
		}
	}
	return true
}

// Collect gathers every process's profile and trace dumps — the files
// the SYMBIOSYS analysis scripts would ingest after a run.
func (c *Cluster) Collect() ([]*core.ProfileDump, []*core.TraceDump) {
	profiles := make([]*core.ProfileDump, 0, len(c.instances))
	traces := make([]*core.TraceDump, 0, len(c.instances))
	for _, inst := range c.instances {
		profiles = append(profiles, inst.Profiler().Dump())
		traces = append(traces, inst.Profiler().DumpTrace())
	}
	return profiles, traces
}

// Export streams every process's merged profile snapshot and trace
// events into the given sinks (either may be nil) — the pipeline-native
// alternative to Collect for exporters that consume rather than own the
// measurement buffers.
func (c *Cluster) Export(ps core.ProfileSink, ts core.TraceSink) error {
	for _, inst := range c.instances {
		if ps != nil {
			if err := ps.WriteProfileDump(inst.Profiler().Dump()); err != nil {
				return fmt.Errorf("experiments: export profile for %s: %w", inst.Addr(), err)
			}
		}
		if ts != nil {
			for _, ev := range inst.Profiler().TraceEvents() {
				if err := ts.WriteEvent(ev); err != nil {
					return fmt.Errorf("experiments: export trace for %s: %w", inst.Addr(), err)
				}
			}
		}
	}
	if ps != nil {
		if err := ps.Flush(); err != nil {
			return err
		}
	}
	if ts != nil {
		return ts.Flush()
	}
	return nil
}

// DefaultFabric is the cost model used by all experiments: a scaled HPC
// interconnect (1.5µs local, 8µs remote, 10 GB/s).
func DefaultFabric() na.Config { return na.DefaultConfig() }

// NominalRTT estimates one request+response transit for the unaccounted
// computation (Figure 11): two one-way remote latencies.
func NominalRTT(cfg na.Config) time.Duration { return 2 * cfg.LatencyRemote }
