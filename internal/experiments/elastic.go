package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/services/sdskv"
	"symbiosys/internal/ssg"
)

// elasticGroup is the SSG group name the elastic nodes join.
const elasticGroup = "elastic"

// The elastic run's fixed shape.
const (
	// ElasticClients is how many client processes carry the sustained
	// load. They run in server mode so membership deltas are pushed to
	// their routing tables.
	ElasticClients = 2
	// elasticStagger spaces the membership changes out so the load
	// overlaps genuinely concurrent migration rounds.
	elasticStagger = 3 * time.Millisecond
	// elasticDrainTimeout bounds the graceful drain ending the run.
	elasticDrainTimeout = 5 * time.Second
)

// ElasticConfig shapes one elastic scale-out run: an elastic sdskv cluster scaled
// StartNodes → PeakNodes → EndNodes under a sustained client load, with
// live shard migration streaming the moving ranges between phases and
// the acked-op audit holding the zero-loss bar throughout.
type ElasticConfig struct {
	// StartNodes → PeakNodes → EndNodes is the churn schedule.
	StartNodes int
	PeakNodes  int
	EndNodes   int

	// IssuersPerClient is the load's concurrency on each of the
	// ElasticClients processes.
	IssuersPerClient int
	// OpsPerPhase is operations per issuer in each of the five phases
	// (steady / scale-out / steady / scale-in / steady).
	OpsPerPhase int

	// MetricsAddr, when non-empty, serves live telemetry; the result
	// carries a /metrics exposition rendered before the drain with the
	// symbiosys_pvar_elastic_* families.
	MetricsAddr string

	// Report, when enabled, renders the run's dominant-critical-path
	// flame (migration segments alongside the serving path).
	Report ReportConfig
}

// ElasticPhase is one load phase's outcome.
type ElasticPhase struct {
	Name  string
	Nodes int // target node count while the phase ran
	Ops   uint64
	Acked uint64
	P99   time.Duration
}

// ElasticResult is the scale-out campaign report.
type ElasticResult struct {
	Config   ElasticConfig
	WallTime time.Duration

	// Phases in order: steady-start, scale-out, steady-peak, scale-in,
	// steady-end.
	Phases []ElasticPhase

	// LostAcked counts acked puts whose keys were missing or wrong at
	// the audit — the acceptance bar is zero.
	LostAcked int64

	// Aggregated node-side migration counters.
	KeysMigratedOut uint64
	KeysMigratedIn  uint64
	WrongRoutes     uint64
	DualWrites      uint64
	ReadThroughs    uint64
	// Redirects is the client-side refresh-and-retry count.
	Redirects uint64

	// FinalSpread is pairs held per live node after the last settle.
	FinalSpread map[string]int

	// MigrateSpans counts sdskv_migrate_* spans in the merged trace — the
	// migration segments as sym trace reconstructs them.
	MigrateSpans int

	// MetricsAddr/MetricsText capture the live-telemetry surface when
	// Config.MetricsAddr was set.
	MetricsAddr string
	MetricsText string

	// DrainErr is the graceful drain's outcome.
	DrainErr error

	// ReportPaths lists the analysis reports written for the run.
	ReportPaths []string
}

// SteadyP99 returns the worst steady-phase p99; MigrationP99 the worst
// churn-phase p99. Their ratio is the migration inflation.
func (r *ElasticResult) SteadyP99() time.Duration {
	var worst time.Duration
	for _, p := range r.Phases {
		if strings.HasPrefix(p.Name, "steady") && p.P99 > worst {
			worst = p.P99
		}
	}
	return worst
}

// MigrationP99 returns the worst churn-phase (scale-out/in) p99.
func (r *ElasticResult) MigrationP99() time.Duration {
	var worst time.Duration
	for _, p := range r.Phases {
		if strings.HasPrefix(p.Name, "scale") && p.P99 > worst {
			worst = p.P99
		}
	}
	return worst
}

// ackedOp is one acknowledged put for the audit.
type ackedOp struct {
	key, value string
}

// RunElastic drives the elastic scale-out campaign: load an elastic cluster
// at StartNodes, grow it to PeakNodes under sustained load, shrink to
// EndNodes under load, and audit that no acked op was lost and the
// migration is visible in traces and metrics.
func RunElastic(cfg ElasticConfig) (*ElasticResult, error) {
	if cfg.PeakNodes < cfg.StartNodes || cfg.EndNodes > cfg.PeakNodes || cfg.EndNodes < 1 {
		return nil, fmt.Errorf("experiments: elastic schedule %d→%d→%d is not a scale-out/scale-in",
			cfg.StartNodes, cfg.PeakNodes, cfg.EndNodes)
	}
	cluster := NewCluster(DefaultFabric())
	shutdown := true
	defer func() {
		if shutdown {
			cluster.Shutdown()
		}
	}()

	res := &ElasticResult{Config: cfg, FinalSpread: make(map[string]int)}

	var err error
	if res.MetricsAddr, err = cluster.ServeTelemetry(cfg.MetricsAddr); err != nil {
		return nil, err
	}
	// The per-process resilience policy, clients and nodes alike (peer
	// migration traffic rides the same machinery): short per-try timeouts
	// so stale routes fail over quickly.
	retry := &margo.RetryPolicy{
		MaxAttempts:    6,
		PerTryTimeout:  75 * time.Millisecond,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     16 * time.Millisecond,
		Budget:         -1,
	}

	// The SSG root hosting the service group.
	rootInst, err := cluster.Start(ProcessOptions{
		Mode: margo.ModeServer, Node: "elastic-root", Name: "root", Stage: core.StageFull,
	})
	if err != nil {
		return nil, err
	}
	host, err := ssg.NewHost(rootInst)
	if err != nil {
		return nil, err
	}
	if _, err := host.Create(elasticGroup, false); err != nil {
		return nil, err
	}
	root := rootInst.Addr()

	// All PeakNodes processes exist from the start; membership (and
	// therefore ownership) is what churns.
	var nodes []*sdskv.Node
	var nodeInsts []*margo.Instance
	for i := 0; i < cfg.PeakNodes; i++ {
		inst, err := cluster.Start(ProcessOptions{
			Mode: margo.ModeServer, Node: fmt.Sprintf("elastic-kv%d", i),
			Name: fmt.Sprintf("elastic%d", i), Stage: core.StageFull, Retry: retry,
		})
		if err != nil {
			return nil, err
		}
		n, err := sdskv.NewNode(inst, root, elasticGroup)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
		nodeInsts = append(nodeInsts, inst)
	}
	join := func(i int) error {
		var jerr error
		u := nodeInsts[i].Run("join", func(self *abt.ULT) { jerr = nodes[i].Join(self) })
		u.Join(nil)
		return jerr
	}
	retire := func(i int) error {
		var rerr error
		u := nodeInsts[i].Run("retire", func(self *abt.ULT) { rerr = nodes[i].Retire(self) })
		u.Join(nil)
		return rerr
	}
	for i := 0; i < cfg.StartNodes; i++ {
		if err := join(i); err != nil {
			return nil, err
		}
	}

	// Server-mode client processes: their routing tables refresh from
	// pushed membership deltas, falling back to Observe on refusals.
	var clients []*margo.Instance
	var routers []*sdskv.Router
	for i := 0; i < ElasticClients; i++ {
		inst, err := cluster.Start(ProcessOptions{
			Mode: margo.ModeServer, Node: fmt.Sprintf("elastic-client%d", i),
			Name: "load", Stage: core.StageFull, Retry: retry,
		})
		if err != nil {
			return nil, err
		}
		c, err := sdskv.NewRouter(inst, root, elasticGroup)
		if err != nil {
			return nil, err
		}
		var aerr error
		u := inst.Run("attach", func(self *abt.ULT) { aerr = c.Attach(self) })
		u.Join(nil)
		if aerr != nil {
			return nil, aerr
		}
		clients = append(clients, inst)
		routers = append(routers, c)
	}

	live := func(from, to int) []*sdskv.Node { return nodes[from:to] }
	settle := func(ns []*sdskv.Node) error {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			done := true
			for _, n := range ns {
				if !n.Settled() {
					done = false
					break
				}
			}
			if done {
				return nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("experiments: elastic cluster did not settle")
	}

	var (
		ackedMu sync.Mutex
		acked   []ackedOp
	)
	start := time.Now()

	// loadPhase drives OpsPerPhase unique-key puts per issuer while
	// churn (if any) runs concurrently, recording ack latencies.
	loadPhase := func(name string, targetNodes int, churn func() error) error {
		ps := &phaseStats{}
		churnDone := make(chan error, 1)
		if churn != nil {
			go func() { churnDone <- churn() }()
		} else {
			churnDone <- nil
		}
		var firstErr error
		var errMu sync.Mutex
		runPhase(clients, cfg.IssuersPerClient, name, func(self *abt.ULT, inst *margo.Instance, issuer int) {
			ci := 0
			for k, c := range clients {
				if c == inst {
					ci = k
					break
				}
			}
			c := routers[ci]
			for op := 0; op < cfg.OpsPerPhase; op++ {
				key := fmt.Sprintf("elastic/%s/c%d/i%d/op%06d", name, ci, issuer, op)
				val := fmt.Sprintf("v-%s-%d-%d", name, issuer, op)
				t0 := time.Now()
				err := c.Put(self, []byte(key), []byte(val))
				ok := err == nil
				ps.record(key, ok, time.Since(t0))
				if ok {
					ackedMu.Lock()
					acked = append(acked, ackedOp{key: key, value: val})
					ackedMu.Unlock()
				} else {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("experiments: %s put: %w", name, err)
					}
					errMu.Unlock()
				}
			}
		})
		if cerr := <-churnDone; cerr != nil && firstErr == nil {
			firstErr = cerr
		}
		res.Phases = append(res.Phases, ElasticPhase{
			Name: name, Nodes: targetNodes,
			Ops: ps.ops, Acked: uint64(len(ps.acked)), P99: ps.lat.Percentile(99),
		})
		return firstErr
	}

	// Phase 1 — steady at StartNodes.
	if err := loadPhase("steady-start", cfg.StartNodes, nil); err != nil {
		return nil, err
	}
	// Phase 2 — scale out to PeakNodes under load.
	if err := loadPhase("scale-out", cfg.PeakNodes, func() error {
		for i := cfg.StartNodes; i < cfg.PeakNodes; i++ {
			if err := join(i); err != nil {
				return fmt.Errorf("experiments: join node %d: %w", i, err)
			}
			time.Sleep(elasticStagger)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := settle(live(0, cfg.PeakNodes)); err != nil {
		return nil, err
	}
	// Phase 3 — steady at PeakNodes.
	if err := loadPhase("steady-peak", cfg.PeakNodes, nil); err != nil {
		return nil, err
	}
	// Phase 4 — scale in to EndNodes under load: the highest-indexed
	// nodes retire one by one, each streaming its shards to survivors.
	if err := loadPhase("scale-in", cfg.EndNodes, func() error {
		for i := cfg.PeakNodes - 1; i >= cfg.EndNodes; i-- {
			if err := retire(i); err != nil {
				return fmt.Errorf("experiments: retire node %d: %w", i, err)
			}
			time.Sleep(elasticStagger)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := settle(live(0, cfg.EndNodes)); err != nil {
		return nil, err
	}
	// Phase 5 — steady at EndNodes.
	if err := loadPhase("steady-end", cfg.EndNodes, nil); err != nil {
		return nil, err
	}

	cluster.Settle()
	res.WallTime = time.Since(start)

	// Never-lie audit: every acked put must read back with its value
	// from the final cluster, through a freshly refreshed route.
	auditClient := routers[0]
	var auditErr error
	u := clients[0].Run("audit", func(self *abt.ULT) {
		if err := auditClient.Refresh(self); err != nil {
			auditErr = err
			return
		}
		ackedMu.Lock()
		ops := append([]ackedOp{}, acked...)
		ackedMu.Unlock()
		for _, op := range ops {
			v, found, err := auditClient.Get(self, []byte(op.key))
			if err != nil {
				auditErr = fmt.Errorf("experiments: audit get %s: %w", op.key, err)
				return
			}
			if !found || string(v) != op.value {
				res.LostAcked++
			}
		}
	})
	u.Join(nil)
	if auditErr != nil {
		return nil, auditErr
	}

	for i, n := range nodes {
		st := n.Stats()
		res.KeysMigratedOut += st.KeysMigratedOut
		res.KeysMigratedIn += st.KeysMigratedIn
		res.WrongRoutes += st.WrongRoutes
		res.DualWrites += st.DualWrites
		res.ReadThroughs += st.ReadThroughs
		if i < cfg.EndNodes {
			res.FinalSpread[n.Addr()] = n.Len()
		}
	}
	for _, c := range routers {
		res.Redirects += c.Redirects()
	}

	res.MetricsText = cluster.MetricsText()

	// Trace visibility: migration segments appear as sdskv_migrate_* spans
	// in the merged trace set.
	_, traceDumps := cluster.Collect()
	ts := analysis.MergeTraces(traceDumps)
	for id, evs := range ts.Requests() {
		for _, sp := range analysis.SpansOf(id, evs) {
			if strings.HasPrefix(sp.RPCName, "sdskv_migrate_") {
				res.MigrateSpans++
			}
		}
	}
	if cfg.Report.enabled() {
		path, err := cfg.Report.writeFlame("elastic-flame",
			"Elastic scale-out: dominant critical paths under migration", traceDumps)
		if err != nil {
			return nil, err
		}
		res.ReportPaths = append(res.ReportPaths, path)
	}

	// Stop the elastic machinery before the drain: the run's handoffs are
	// done (retired nodes already streamed out), so the drain hooks
	// no-op and the teardown stays orderly.
	for _, n := range nodes {
		n.Close()
	}
	host.Close()
	res.DrainErr = cluster.Drain(elasticDrainTimeout)
	shutdown = false
	return res, nil
}
