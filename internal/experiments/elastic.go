package experiments

import (
	"fmt"
	"strings"
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
}

// ElasticResult is the scale-out campaign report. Its Run's phases are,
// in order, steady-start, scale-out, steady-peak, scale-in and
// steady-end.
type ElasticResult struct {
	Config ElasticConfig
	*Run

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

// RunElastic drives the elastic scale-out campaign as the run
// "elastic": load an elastic cluster at StartNodes, grow it to PeakNodes
// under sustained load, shrink to EndNodes under load, and audit that no
// acked op was lost and the migration is visible in traces and metrics.
func RunElastic(cfg ElasticConfig, metricsAddr, out string) (*ElasticResult, error) {
	if cfg.PeakNodes < cfg.StartNodes || cfg.EndNodes > cfg.PeakNodes || cfg.EndNodes < 1 {
		return nil, fmt.Errorf("experiments: elastic schedule %d→%d→%d is not a scale-out/scale-in",
			cfg.StartNodes, cfg.PeakNodes, cfg.EndNodes)
	}
	var (
		host      *ssg.Host
		nodes     []*sdskv.Node
		nodeInsts []*margo.Instance
		clients   []*margo.Instance
		routers   []*sdskv.Router
	)
	join := func(i int) error { return onULT(nodeInsts[i], "join", nodes[i].Join) }
	retire := func(i int) error { return onULT(nodeInsts[i], "retire", nodes[i].Retire) }

	s := Scenario{Name: "elastic"}
	s.Build = func(c *Cluster) error {
		// The per-process resilience policy, clients and nodes alike
		// (peer migration traffic rides the same machinery): short
		// per-try timeouts so stale routes fail over quickly.
		retry := &margo.RetryPolicy{
			MaxAttempts:    6,
			PerTryTimeout:  75 * time.Millisecond,
			InitialBackoff: 2 * time.Millisecond,
			MaxBackoff:     16 * time.Millisecond,
			Budget:         -1,
		}
		// The SSG root hosting the service group.
		rootInst, err := c.Start(ProcessOptions{
			Mode: margo.ModeServer, Node: "elastic-root", Name: "root", Stage: core.StageFull,
		})
		if err != nil {
			return err
		}
		if host, err = ssg.NewHost(rootInst); err != nil {
			return err
		}
		if _, err := host.Create(elasticGroup, false); err != nil {
			return err
		}
		root := rootInst.Addr()

		// All PeakNodes processes exist from the start; membership (and
		// therefore ownership) is what churns.
		for i := 0; i < cfg.PeakNodes; i++ {
			inst, err := c.Start(ProcessOptions{
				Mode: margo.ModeServer, Node: fmt.Sprintf("elastic-kv%d", i),
				Name: fmt.Sprintf("elastic%d", i), Stage: core.StageFull, Retry: retry,
			})
			if err != nil {
				return err
			}
			n, err := sdskv.NewNode(inst, root, elasticGroup)
			if err != nil {
				return err
			}
			nodes = append(nodes, n)
			nodeInsts = append(nodeInsts, inst)
		}
		for i := 0; i < cfg.StartNodes; i++ {
			if err := join(i); err != nil {
				return err
			}
		}

		// Server-mode client processes: their routing tables refresh from
		// pushed membership deltas, falling back to Observe on refusals.
		for i := 0; i < ElasticClients; i++ {
			inst, err := c.Start(ProcessOptions{
				Mode: margo.ModeServer, Node: fmt.Sprintf("elastic-client%d", i),
				Name: "load", Stage: core.StageFull, Retry: retry,
			})
			if err != nil {
				return err
			}
			router, err := sdskv.NewRouter(inst, root, elasticGroup)
			if err != nil {
				return err
			}
			if err := onULT(inst, "attach", router.Attach); err != nil {
				return err
			}
			clients = append(clients, inst)
			routers = append(routers, router)
		}
		return nil
	}

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

	s.Drive = func(_ *Cluster, r *Run) error {
		// load drives OpsPerPhase unique-key puts per issuer while churn
		// (if any) runs concurrently.
		load := func(name string, churn func() error) error {
			churnDone := make(chan error, 1)
			if churn != nil {
				go func() { churnDone <- churn() }()
			} else {
				churnDone <- nil
			}
			err := r.drivePhase(name, clients, cfg.IssuersPerClient, cfg.OpsPerPhase, 0,
				func(self *abt.ULT, c, issuer, op int) (string, string, error) {
					key := fmt.Sprintf("elastic/%s/c%d/i%d/op%06d", name, c, issuer, op)
					val := fmt.Sprintf("v-%s-%d-%d", name, issuer, op)
					return key, val, routers[c].Put(self, []byte(key), []byte(val))
				})
			if err != nil {
				err = fmt.Errorf("experiments: %s put: %w", name, err)
			}
			if cerr := <-churnDone; cerr != nil && err == nil {
				err = cerr
			}
			return err
		}

		// Phase 1 — steady at StartNodes.
		if err := load("steady-start", nil); err != nil {
			return err
		}
		// Phase 2 — scale out to PeakNodes under load.
		if err := load("scale-out", func() error {
			for i := cfg.StartNodes; i < cfg.PeakNodes; i++ {
				if err := join(i); err != nil {
					return fmt.Errorf("experiments: join node %d: %w", i, err)
				}
				time.Sleep(elasticStagger)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := settle(nodes[:cfg.PeakNodes]); err != nil {
			return err
		}
		// Phase 3 — steady at PeakNodes.
		if err := load("steady-peak", nil); err != nil {
			return err
		}
		// Phase 4 — scale in to EndNodes under load: the highest-indexed
		// nodes retire one by one, each streaming its shards to survivors.
		if err := load("scale-in", func() error {
			for i := cfg.PeakNodes - 1; i >= cfg.EndNodes; i-- {
				if err := retire(i); err != nil {
					return fmt.Errorf("experiments: retire node %d: %w", i, err)
				}
				time.Sleep(elasticStagger)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := settle(nodes[:cfg.EndNodes]); err != nil {
			return err
		}
		// Phase 5 — steady at EndNodes.
		return load("steady-end", nil)
	}

	res := &ElasticResult{Config: cfg, FinalSpread: make(map[string]int)}
	// Never-lie audit: every acked put must read back with its value from
	// the final cluster, through a freshly refreshed route. Then the
	// elastic machinery stops: the run's handoffs are done (retired nodes
	// already streamed out), so the nodes' drain hooks, which would hand
	// a live node's shards to its peers, find nothing to do and the drain
	// that ends the run stays a plain teardown.
	s.Audit = func(_ *Cluster, r *Run) error {
		defer func() {
			for _, n := range nodes {
				n.Close()
			}
			host.Close()
		}()
		err := onULT(clients[0], "audit", func(self *abt.ULT) error {
			if err := routers[0].Refresh(self); err != nil {
				return err
			}
			for _, op := range r.acked {
				v, found, err := routers[0].Get(self, []byte(op.key))
				if err != nil {
					return fmt.Errorf("get %s: %w", op.key, err)
				}
				if !found || string(v) != op.value {
					r.LostAcked++
				}
			}
			return nil
		})
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
		for _, router := range routers {
			res.Redirects += router.Redirects()
		}
		return err
	}
	run, err := Execute(s, metricsAddr, out)
	if err != nil {
		return nil, err
	}
	res.Run = run
	// Trace visibility: migration segments appear as sdskv_migrate_* spans
	// in the merged trace set.
	run.Traces.EachRequest(func(_ uint64, _ int, spans []analysis.Span) {
		for _, sp := range spans {
			if strings.HasPrefix(sp.RPCName, "sdskv_migrate_") {
				res.MigrateSpans++
			}
		}
	})
	return res, nil
}
