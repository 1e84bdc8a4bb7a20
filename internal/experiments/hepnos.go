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
	Config HEPnOSConfig
	*Run
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

// RunHEPnOS deploys one Table IV configuration as the run cfg.Name,
// loads it with the data-loader workload, audits that the servers hold
// every event the loaders saw acknowledged, and derives the Figures
// 9–12 numbers from the run.
func RunHEPnOS(cfg HEPnOSConfig, metricsAddr, out string) (*HEPnOSResult, error) {
	var (
		servers []*hepnos.Server
		infos   []hepnos.ServerInfo
		clients []*margo.Instance
		stored  []uint64
	)
	s := Scenario{Name: cfg.Name}
	s.Build = func(c *Cluster) error {
		if cfg.Faults != nil {
			c.Fabric.SetFaultPlan(cfg.Faults)
		}
		// Servers, ServersPerNode per virtual node.
		for i := 0; i < cfg.TotalServers; i++ {
			inst, err := c.Start(ProcessOptions{
				Mode: margo.ModeServer, Node: fmt.Sprintf("server-node%d", i/max(cfg.ServersPerNode, 1)),
				Name:           fmt.Sprintf("hepnos%d", i),
				HandlerStreams: cfg.Threads,
				Stage:          cfg.Stage,
				OFIMaxEvents:   cfg.OFIMaxEvents,
			})
			if err != nil {
				return err
			}
			srv, err := hepnos.NewServer(inst, cfg.Databases, cfg.Backend,
				sdskv.Config{PutCostPerKey: hepnosPutCostPerKey})
			if err != nil {
				return err
			}
			servers = append(servers, srv)
			infos = append(infos, hepnos.ServerInfo{Addr: srv.Addr(), DBIDs: srv.DBIDs})
		}
		// Clients, ClientsPerNode per virtual node.
		for i := 0; i < cfg.TotalClients; i++ {
			inst, err := c.Start(ProcessOptions{
				Mode: margo.ModeClient, Node: fmt.Sprintf("client-node%d", i/max(cfg.ClientsPerNode, 1)),
				Name:                fmt.Sprintf("loader%d", i),
				DedicatedProgressES: cfg.ClientProgressThread,
				Stage:               cfg.Stage,
				OFIMaxEvents:        cfg.OFIMaxEvents,
				Retry:               cfg.Retry,
			})
			if err != nil {
				return err
			}
			if cfg.Retry != nil {
				// put_packed overwrites the same keys on re-execution, so a
				// timed-out attempt is safe to re-issue.
				inst.MarkIdempotent(sdskv.RPCPutPacked)
			}
			clients = append(clients, inst)
		}
		return nil
	}
	// Every client's loader runs concurrently.
	s.Drive = func(*Cluster, *Run) error {
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		stored = make([]uint64, len(clients))
		for i, inst := range clients {
			wg.Add(1)
			go func() {
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
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("client %d: %w", i, err)
			}
		}
		return nil
	}
	res := &HEPnOSResult{Config: cfg}
	s.Audit = func(_ *Cluster, r *Run) error {
		var held uint64
		for _, srv := range servers {
			held += uint64(srv.StoredEvents())
		}
		for _, n := range stored {
			res.EventsStored += n
		}
		r.LostAcked = max(int64(res.EventsStored)-int64(held), 0)
		return nil
	}
	run, err := Execute(s, metricsAddr, out)
	if err != nil {
		return nil, err
	}
	res.Run = run

	bc := core.Breadcrumb(0).Push(sdskv.RPCPutPacked)
	res.CumTargetExec, res.Components = run.Profile.CumulativeTargetExecution(bc)
	for key, s := range run.Profile.Origin {
		if key.BC == bc {
			res.CumOriginExec += time.Duration(s.Components[core.CompOriginExec])
		}
	}
	res.Unaccounted = run.Profile.Unaccounted(bc, NominalRTT(DefaultFabric()))
	res.BlockedSeries = run.Traces.BlockedULTSeries(sdskv.RPCPutPacked)
	res.OFISeries = run.Traces.OFIEventsReadSeries("")
	return res, nil
}
