package experiments

import (
	"fmt"
	"sync"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/na"
	"symbiosys/internal/services/hepnos"
	"symbiosys/internal/services/sdskv"
	"symbiosys/internal/workload/dataloader"
)

// HEPnOSConfig is one row of the paper's Table IV plus the workload
// knobs of the scaled-down reproduction.
type HEPnOSConfig struct {
	Name string

	// Table IV columns.
	TotalClients         int
	ClientsPerNode       int
	TotalServers         int
	ServersPerNode       int
	BatchSize            int
	Threads              int // handler execution streams per server
	Databases            int // databases per server process
	ClientProgressThread bool
	OFIMaxEvents         int

	// Workload shape (scaled for the simulated platform).
	EventsPerClient int
	// MaxInflight bounds the async flush engine's outstanding RPCs per
	// issuer (the HEPnOS async engine window).
	MaxInflight int

	Backend string // kv engine of every event database
	Stage   core.Stage

	// MetricsAddr, when non-empty, serves /metrics + /snapshot over
	// every process of the run for its duration (":0" picks a free port;
	// see HEPnOSResult.MetricsAddr for the bound address).
	MetricsAddr string

	// Faults, when non-nil, is installed on the cluster fabric before the
	// workload starts (chaos runs). Retry, when non-nil, is applied to
	// every client process and sdskv_put_packed is marked idempotent so
	// timed-out puts are re-issued.
	Faults *na.FaultPlan
	Retry  *margo.RetryPolicy
}

// The workload's fixed shape and modeled costs.
const (
	// hepnosEventSize is the payload of one stored event.
	hepnosEventSize = 512
	// hepnosPutCostPerKey is the modeled backend insert cost. The paper's
	// batches hold ~1024 events; the scaled workload holds far fewer
	// per batch, so the per-key cost is raised to keep per-RPC service
	// times in the same regime.
	hepnosPutCostPerKey = 10 * time.Microsecond
	// hepnosIssueCost is the modeled client-side request-preparation
	// cost per put_packed RPC.
	hepnosIssueCost = 25 * time.Microsecond
)

// The seven service configurations of Table IV. Client/server counts
// are the paper's; the workload is scaled so each run completes in
// seconds on the simulated platform.
var (
	// C1: too few execution streams (5 threads). The workload is the
	// paper's shape scaled down: each client loads 2048 events through
	// the async flush engine, so the 4 servers receive bursts of
	// put_packed RPCs whose service demand exceeds 5 streams.
	C1 = HEPnOSConfig{Name: "C1", TotalClients: 32, ClientsPerNode: 16,
		TotalServers: 4, ServersPerNode: 2, BatchSize: 1024, Threads: 5,
		Databases: 32, OFIMaxEvents: 16, EventsPerClient: 2048, MaxInflight: 64,
		Backend: "map", Stage: core.StageFull}
	// C2: C1 with 15 additional execution streams.
	C2 = HEPnOSConfig{Name: "C2", TotalClients: 32, ClientsPerNode: 16,
		TotalServers: 4, ServersPerNode: 2, BatchSize: 1024, Threads: 20,
		Databases: 32, OFIMaxEvents: 16, EventsPerClient: 2048, MaxInflight: 64,
		Backend: "map", Stage: core.StageFull}
	// C3: C2 with 8 databases instead of 32 — fewer, larger put_packed
	// batches reach each server.
	C3 = HEPnOSConfig{Name: "C3", TotalClients: 32, ClientsPerNode: 16,
		TotalServers: 4, ServersPerNode: 2, BatchSize: 1024, Threads: 20,
		Databases: 8, OFIMaxEvents: 16, EventsPerClient: 2048, MaxInflight: 64,
		Backend: "map", Stage: core.StageFull}
	// C4: small deployment, healthy batch size. The batched loader has
	// little reason to keep many RPCs in flight (each carries a large
	// batch), so its async window stays shallow — which is also what
	// keeps its OFI samples under the threshold in Figure 12a.
	C4 = HEPnOSConfig{Name: "C4", TotalClients: 2, ClientsPerNode: 1,
		TotalServers: 4, ServersPerNode: 2, BatchSize: 1024, Threads: 16,
		Databases: 8, OFIMaxEvents: 16, EventsPerClient: 8192, MaxInflight: 6,
		Backend: "map", Stage: core.StageFull}
	// C5: batch size 1 — the pathological configuration: every event is
	// its own put_packed RPC, flooding the client's shared progress ES.
	C5 = HEPnOSConfig{Name: "C5", TotalClients: 2, ClientsPerNode: 1,
		TotalServers: 4, ServersPerNode: 2, BatchSize: 1, Threads: 16,
		Databases: 8, OFIMaxEvents: 16, EventsPerClient: 8192, MaxInflight: 64,
		Backend: "map", Stage: core.StageFull}
	// C6: C5 with OFI_max_events raised to 64.
	C6 = HEPnOSConfig{Name: "C6", TotalClients: 2, ClientsPerNode: 1,
		TotalServers: 4, ServersPerNode: 2, BatchSize: 1, Threads: 16,
		Databases: 8, OFIMaxEvents: 64, EventsPerClient: 8192, MaxInflight: 64,
		Backend: "map", Stage: core.StageFull}
	// C7: C6 with a dedicated client progress execution stream.
	C7 = HEPnOSConfig{Name: "C7", TotalClients: 2, ClientsPerNode: 1,
		TotalServers: 4, ServersPerNode: 2, BatchSize: 1, Threads: 16,
		Databases: 8, ClientProgressThread: true, OFIMaxEvents: 64,
		EventsPerClient: 8192, MaxInflight: 64, Backend: "map", Stage: core.StageFull}
)

// Scaled divides the events each client loads by div, but to no fewer
// than 64 (or the configured count, where that is smaller): a scaled run
// still fills the async window and the handler pools. A divisor of 1 or
// less leaves the configuration unchanged.
func (c HEPnOSConfig) Scaled(div int) HEPnOSConfig {
	if div > 1 {
		c.EventsPerClient = max(c.EventsPerClient/div, min(c.EventsPerClient, 64))
	}
	return c
}

// TableIV lists the seven configurations in order.
func TableIV() []HEPnOSConfig {
	return []HEPnOSConfig{C1, C2, C3, C4, C5, C6, C7}
}

// HEPnOSResult is everything the Figures 9–12 analyses need from one
// configuration run.
type HEPnOSResult struct {
	Config       HEPnOSConfig
	WallTime     time.Duration
	EventsStored uint64

	// CumTargetExec and Components aggregate the sdskv_put_packed
	// target-side profile (Figure 9's stacked bar).
	CumTargetExec time.Duration
	Components    [core.NumComponents]uint64

	// CumOriginExec is the origin-side cumulative latency; Unaccounted
	// is the Figure 11 residual.
	CumOriginExec time.Duration
	Unaccounted   analysis.UnaccountedReport

	// BlockedSeries is the Figure 10 scatter; OFISeries the Figure 12
	// samples (client-side).
	BlockedSeries []analysis.BlockedSample
	OFISeries     []analysis.OFISample

	// TraceSamples counts trace events collected across processes;
	// TraceDropped counts events lost to per-process capacity bounds.
	TraceSamples int
	TraceDropped uint64

	Profile *analysis.MergedProfile

	// MetricsAddr is the bound live-telemetry address when the run was
	// started with Config.MetricsAddr set (empty otherwise).
	MetricsAddr string

	// Resilience counters summed over every process, plus the fabric's
	// injected-fault totals — nonzero only under a fault plan / retry
	// policy (chaos runs).
	Retries   uint64
	Timeouts  uint64
	Exhausted uint64
	Cancels   uint64
	Faults    na.FaultStats
}

// HandlerFraction returns the target-handler share of cumulative target
// execution (the paper's 26.6% diagnosis for C1).
func (r *HEPnOSResult) HandlerFraction() float64 {
	if r.CumTargetExec == 0 {
		return 0
	}
	return float64(r.Components[core.CompHandler]) / float64(r.CumTargetExec)
}

// MaxBlocked returns the peak blocked-ULT count of the run.
func (r *HEPnOSResult) MaxBlocked() int64 {
	var m int64
	for _, s := range r.BlockedSeries {
		if s.Blocked > m {
			m = s.Blocked
		}
	}
	return m
}

// OFIAtCapFraction returns the share of progress passes that read the
// full OFI_max_events budget (Figure 12's pinned-at-threshold signal).
func (r *HEPnOSResult) OFIAtCapFraction() float64 {
	if len(r.OFISeries) == 0 {
		return 0
	}
	atCap := 0
	for _, s := range r.OFISeries {
		if s.EventsRead >= uint64(r.Config.OFIMaxEvents) {
			atCap++
		}
	}
	return float64(atCap) / float64(len(r.OFISeries))
}

// RunHEPnOS deploys one Table IV configuration, runs the data-loader
// workload, and returns the analyzed result.
func RunHEPnOS(cfg HEPnOSConfig) (*HEPnOSResult, error) {
	res, _, _, err := runHEPnOSInternal(cfg)
	return res, err
}

// CollectHEPnOSDumps runs one configuration and returns the raw
// per-process profile and trace dumps — the inputs the analysis scripts
// ingest (used by hepnos-bench -out).
func CollectHEPnOSDumps(cfg HEPnOSConfig) ([]*core.ProfileDump, []*core.TraceDump, error) {
	_, profiles, traces, err := runHEPnOSInternal(cfg)
	return profiles, traces, err
}

func runHEPnOSInternal(cfg HEPnOSConfig) (*HEPnOSResult, []*core.ProfileDump, []*core.TraceDump, error) {
	cluster := NewCluster(DefaultFabric())
	defer cluster.Shutdown()
	if cfg.Faults != nil {
		cluster.Fabric.SetFaultPlan(cfg.Faults)
	}

	metricsAddr, err := cluster.ServeTelemetry(cfg.MetricsAddr)
	if err != nil {
		return nil, nil, nil, err
	}

	// Servers, ServersPerNode per virtual node.
	var infos []hepnos.ServerInfo
	var servers []*hepnos.Server
	for i := 0; i < cfg.TotalServers; i++ {
		node := fmt.Sprintf("server-node%d", i/max(cfg.ServersPerNode, 1))
		inst, err := cluster.Start(ProcessOptions{
			Mode: margo.ModeServer, Node: node,
			Name:           fmt.Sprintf("hepnos%d", i),
			HandlerStreams: cfg.Threads,
			Stage:          cfg.Stage,
			OFIMaxEvents:   cfg.OFIMaxEvents,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		srv, err := hepnos.NewServer(inst, cfg.Databases, cfg.Backend,
			sdskv.Config{PutCostPerKey: hepnosPutCostPerKey})
		if err != nil {
			return nil, nil, nil, err
		}
		servers = append(servers, srv)
		infos = append(infos, hepnos.ServerInfo{Addr: srv.Addr(), DBIDs: srv.DBIDs})
	}

	// Clients, ClientsPerNode per virtual node.
	var clients []*margo.Instance
	for i := 0; i < cfg.TotalClients; i++ {
		node := fmt.Sprintf("client-node%d", i/max(cfg.ClientsPerNode, 1))
		inst, err := cluster.Start(ProcessOptions{
			Mode: margo.ModeClient, Node: node,
			Name:                fmt.Sprintf("loader%d", i),
			DedicatedProgressES: cfg.ClientProgressThread,
			Stage:               cfg.Stage,
			OFIMaxEvents:        cfg.OFIMaxEvents,
			Retry:               cfg.Retry,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if cfg.Retry != nil {
			// put_packed overwrites the same keys on re-execution, so a
			// timed-out attempt is safe to re-issue.
			inst.MarkIdempotent(sdskv.RPCPutPacked)
		}
		clients = append(clients, inst)
	}

	// Run every client's loader concurrently and wait.
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	stored := make([]uint64, len(clients))
	for i, inst := range clients {
		wg.Add(1)
		go func(i int, inst *margo.Instance) {
			defer wg.Done()
			stored[i], errs[i] = dataloader.Run(inst, dataloader.Config{
				Events:      cfg.EventsPerClient,
				EventSize:   hepnosEventSize,
				BatchSize:   cfg.BatchSize,
				MaxInflight: cfg.MaxInflight,
				IssueCost:   hepnosIssueCost,
				Servers:     infos,
				Seed:        uint64(i + 1),
			})
		}(i, inst)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	cluster.Settle()

	res := &HEPnOSResult{Config: cfg, WallTime: wall, MetricsAddr: metricsAddr}
	for _, s := range stored {
		res.EventsStored += s
	}
	for _, inst := range cluster.Instances() {
		rs := inst.RetryStats()
		res.Retries += rs.Retries
		res.Timeouts += rs.Timeouts
		res.Exhausted += rs.Exhausted
		res.Cancels += rs.Cancels
	}
	res.Faults = cluster.Fabric.FaultStats()
	profiles, traceDumps := cluster.Collect()
	merged := analysis.Merge(profiles)
	traces := analysis.MergeTraces(traceDumps)
	res.Profile = merged
	res.TraceSamples = len(traces.Events)
	res.TraceDropped = traces.Dropped

	bc := core.Breadcrumb(0).Push(sdskv.RPCPutPacked)
	total, comps := merged.CumulativeTargetExecution(bc)
	res.CumTargetExec = total
	res.Components = comps
	for key, s := range merged.Origin {
		if key.BC == bc {
			res.CumOriginExec += time.Duration(s.Components[core.CompOriginExec])
		}
	}
	res.Unaccounted = merged.Unaccounted(bc, NominalRTT(cluster.Fabric.Config()))
	res.BlockedSeries = traces.BlockedULTSeries(sdskv.RPCPutPacked)
	res.OFISeries = traces.OFIEventsReadSeries("")
	return res, profiles, traceDumps, nil
}
