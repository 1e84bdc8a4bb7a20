package experiments

import (
	"fmt"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// RPCStormPut is the storm scenario's RPC: store one key, burning a
// configurable backend cost on the handler's execution stream.
const RPCStormPut = "storm_put"

// The storm's fixed shape.
const (
	// StormDeadline is the absolute per-op deadline stamped on storm
	// requests (ForwardEx).
	StormDeadline = 5 * time.Millisecond
	// StormClients × StormIssuersPerClient unpaced issuers drive the
	// storm.
	StormClients          = 6
	StormIssuersPerClient = 4
	// StormHandlerStreams and StormHandlerCost size the provider:
	// capacity is streams/cost ≈ 6.7k ops/sec, far under the storm's
	// demand.
	StormHandlerStreams = 2
	StormHandlerCost    = 300 * time.Microsecond
	// StormMaxInFlight is the server's admission cap (soft watermark at
	// half of it, hard at it), so the handler queue is provably bounded
	// regardless of drain speed.
	StormMaxInFlight = 8
	// recoveryPace is the inter-op sleep during recovery: 24 issuers at
	// 10ms ≈ 2.4k ops/s, well under the provider's capacity, so recovery
	// demand is genuinely sustainable.
	recoveryPace = 10 * time.Millisecond
	// overloadDrainTimeout bounds the graceful drain ending the run.
	overloadDrainTimeout = 2 * time.Second
)

// OverloadConfig shapes one overload-storm run: a deliberately
// undersized provider (few execution streams, slow handler) driven past
// saturation by an unpaced client storm, with the full overload-control
// plane engaged — admission watermarks on the server, deadline
// propagation on the wire, circuit breakers + retries on the clients —
// followed by a paced recovery phase that must see goodput return as
// breakers half-open and close.
type OverloadConfig struct {
	// StormOps / RecoveryOps are operations per issuer in each phase.
	StormOps    int
	RecoveryOps int

	// MetricsAddr, when non-empty, serves live telemetry for the run;
	// the result carries a /metrics exposition rendered right before
	// the drain so callers can assert on the symbiosys_overload_*
	// families.
	MetricsAddr string

	// Report, when enabled, renders the run's dominant-critical-path
	// report (queue and backoff segments under saturation) as the storm
	// ends.
	Report ReportConfig
}

// stormArgs is the storm_put request payload.
type stormArgs struct {
	Key string
	Val []byte
}

// Proc implements mercury.Procable.
func (a *stormArgs) Proc(p *mercury.Proc) error {
	p.String(&a.Key)
	p.Bytes(&a.Val)
	return p.Err()
}

// stormStore is the provider's backend: a map guarded by an abt mutex
// so concurrent handler ULTs serialize like a real embedded KV store.
type stormStore struct {
	mu   abt.Mutex
	keys map[string]bool
}

func (s *stormStore) put(self *abt.ULT, key string) {
	s.mu.Lock(self)
	s.keys[key] = true
	s.mu.Unlock()
}

// phaseStats accumulates one phase's per-op outcomes across issuers,
// keeping the acknowledged keys for the never-lie audit.
type phaseStats struct {
	mu    sync.Mutex
	ops   uint64
	acked []string
	lat   core.CallStats // acknowledged-op latency distribution
}

func (ps *phaseStats) record(key string, ok bool, d time.Duration) {
	ps.mu.Lock()
	ps.ops++
	if ok {
		ps.acked = append(ps.acked, key)
		ps.lat.Record(d)
	}
	ps.mu.Unlock()
}

// OverloadResult is the storm report.
type OverloadResult struct {
	Config   OverloadConfig
	WallTime time.Duration

	// Per-phase op counts and acknowledged-op latencies.
	StormOps      uint64
	StormAcked    uint64
	RecoveryOps   uint64
	RecoveryAcked uint64
	StormP99      time.Duration
	RecoveryP99   time.Duration

	// LostAcked counts operations the clients saw acknowledged whose
	// keys are missing from the store — the never-lie-to-the-client
	// invariant; the acceptance bar is zero.
	LostAcked int64

	// QueueHWM is the server handler pool's size high-watermark; the
	// MaxInFlight admission cap bounds it.
	QueueHWM int64

	// Server-side decisions and client-side breaker activity.
	Shed             uint64
	Expired          uint64
	BreakerTrips     uint64
	BreakerFastFails uint64
	Retries          uint64
	Exhausted        uint64

	// FailedServerSpans counts Failed target-side spans in the merged
	// trace — shed and expired decisions as sym trace reconstructs them
	// (each rejection must close as one Failed SERVER span, not dangle).
	FailedServerSpans int

	// ServerPVars is the server's profile-dump PVar block (shed,
	// expired, and breaker counters as the offline analysis scripts
	// read them).
	ServerPVars map[string]uint64

	// MetricsAddr/MetricsText capture the live-telemetry surface when
	// Config.MetricsAddr was set: the bound address and a /metrics
	// exposition rendered just before the drain.
	MetricsAddr string
	MetricsText string

	// DrainErr is the graceful drain's outcome (nil means every
	// in-flight handler finished before the drain timed out).
	DrainErr error

	// ReportPaths lists the analysis reports written for the run (empty
	// unless Config.Report is enabled).
	ReportPaths []string
}

// StormSuccessRate is acked/issued for the storm phase.
func (r *OverloadResult) StormSuccessRate() float64 {
	if r.StormOps == 0 {
		return 0
	}
	return float64(r.StormAcked) / float64(r.StormOps)
}

// RecoverySuccessRate is acked/issued for the recovery phase.
func (r *OverloadResult) RecoverySuccessRate() float64 {
	if r.RecoveryOps == 0 {
		return 0
	}
	return float64(r.RecoveryAcked) / float64(r.RecoveryOps)
}

// RunOverload drives the storm scenario: saturate, shed, trip breakers,
// recover, drain. See OverloadResult for the facts the smoke test
// asserts on.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	cluster := NewCluster(DefaultFabric())
	shutdown := true
	defer func() {
		if shutdown {
			cluster.Shutdown()
		}
	}()

	res := &OverloadResult{Config: cfg}
	var err error
	if res.MetricsAddr, err = cluster.ServeTelemetry(cfg.MetricsAddr); err != nil {
		return nil, err
	}

	// One deliberately undersized provider.
	server, err := cluster.Start(ProcessOptions{
		Mode: margo.ModeServer, Node: "overload-server", Name: "provider",
		HandlerStreams: StormHandlerStreams,
		Stage:          core.StageFull,
		Overload: &margo.OverloadPolicy{
			SoftWatermark: StormMaxInFlight / 2,
			HardWatermark: StormMaxInFlight,
			MaxInFlight:   StormMaxInFlight,
		},
	})
	if err != nil {
		return nil, err
	}
	store := &stormStore{keys: make(map[string]bool)}
	if err := server.Register(RPCStormPut, func(ctx *margo.Context) {
		var args stormArgs
		if err := ctx.GetInput(&args); err != nil {
			ctx.RespondError("storm_put: %v", err)
			return
		}
		ctx.Compute(StormHandlerCost)
		store.put(ctx.Self, args.Key)
		ctx.Respond(mercury.Void{})
	}); err != nil {
		return nil, err
	}

	// The clients' policy enables the breaker (threshold 3, 20ms
	// cooldown), 5 attempts with backoffs whose sum exceeds the cooldown
	// (so recovery-phase retries ride out an open circuit instead of
	// exhausting under it), and no budget bucket so the run is
	// deterministic.
	retry := &margo.RetryPolicy{
		MaxAttempts:    5,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     16 * time.Millisecond,
		Budget:         -1,
		Breaker: &margo.BreakerPolicy{
			Threshold: 3,
			Cooldown:  20 * time.Millisecond,
		},
	}
	var clients []*margo.Instance
	for i := 0; i < StormClients; i++ {
		inst, err := cluster.Start(ProcessOptions{
			Mode: margo.ModeClient,
			Node: fmt.Sprintf("overload-client%d", i), Name: "storm",
			Stage: core.StageFull,
			Retry: retry,
		})
		if err != nil {
			return nil, err
		}
		if err := inst.RegisterClient(RPCStormPut); err != nil {
			return nil, err
		}
		clients = append(clients, inst)
	}

	target := server.Addr()
	start := time.Now()

	// Phase 1 — storm: every issuer fires back-to-back deadline-stamped
	// puts. Demand exceeds capacity several times over, so admission
	// control must shed, deadlines must expire, and breakers must trip.
	storm := &phaseStats{}
	runPhase(clients, StormIssuersPerClient, "storm", func(self *abt.ULT, inst *margo.Instance, issuer int) {
		for op := 0; op < cfg.StormOps; op++ {
			key := fmt.Sprintf("storm/%s/%d/%d", inst.Addr(), issuer, op)
			t0 := time.Now()
			err := inst.ForwardEx(self, target, RPCStormPut,
				&stormArgs{Key: key, Val: []byte("v")}, nil,
				margo.ForwardOpts{Deadline: t0.Add(StormDeadline)})
			storm.record(key, err == nil, time.Since(t0))
		}
	})
	res.StormOps = storm.ops
	res.StormAcked = uint64(len(storm.acked))
	res.StormP99 = storm.lat.Percentile(99)

	// Phase 2 — recovery: the storm stops and issuers pace themselves.
	// Open breakers fast-fail the first few ops, cooldowns elapse,
	// half-open probes succeed against the now-idle provider, circuits
	// close, and goodput returns.
	recovery := &phaseStats{}
	runPhase(clients, StormIssuersPerClient, "recovery", func(self *abt.ULT, inst *margo.Instance, issuer int) {
		for op := 0; op < cfg.RecoveryOps; op++ {
			key := fmt.Sprintf("recovery/%s/%d/%d", inst.Addr(), issuer, op)
			t0 := time.Now()
			err := inst.Forward(self, target, RPCStormPut,
				&stormArgs{Key: key, Val: []byte("v")}, nil)
			recovery.record(key, err == nil, time.Since(t0))
			self.Sleep(recoveryPace)
		}
	})
	res.RecoveryOps = recovery.ops
	res.RecoveryAcked = uint64(len(recovery.acked))
	res.RecoveryP99 = recovery.lat.Percentile(99)

	cluster.Settle()
	res.WallTime = time.Since(start)

	// Never-lie audit: every key a client saw acknowledged must be in
	// the store. An ack only leaves the handler after the put committed,
	// so any miss here is an acked-then-lost bug. (The cluster is idle;
	// the map is quiescent.)
	for _, key := range storm.acked {
		if !store.keys[key] {
			res.LostAcked++
		}
	}
	for _, key := range recovery.acked {
		if !store.keys[key] {
			res.LostAcked++
		}
	}

	// Decision counters, gathered while everything is still up.
	st := server.OverloadStats()
	res.Shed, res.Expired = st.Shed, st.Expired
	res.QueueHWM = server.HandlerPool().SizeHighWatermark()
	for _, inst := range clients {
		cs := inst.OverloadStats()
		res.BreakerTrips += cs.BreakerTrips
		res.BreakerFastFails += cs.BreakerFastFails
		rs := inst.RetryStats()
		res.Retries += rs.Retries
		res.Exhausted += rs.Exhausted
	}

	// The exposition reflects the post-storm counters.
	res.MetricsText = cluster.MetricsText()

	// Profile and trace visibility of the decisions.
	profiles, traceDumps := cluster.Collect()
	for _, p := range profiles {
		if p.Entity == target {
			res.ServerPVars = p.PVars
		}
	}
	ts := analysis.MergeTraces(traceDumps)
	for id, evs := range ts.Requests() {
		for _, sp := range analysis.SpansOf(id, evs) {
			if sp.Kind == "SERVER" && sp.Failed {
				res.FailedServerSpans++
			}
		}
	}
	if cfg.Report.enabled() {
		path, err := cfg.Report.writeFlame("overload-flame",
			"Overload storm: dominant critical paths", traceDumps)
		if err != nil {
			return nil, err
		}
		res.ReportPaths = append(res.ReportPaths, path)
	}

	// Graceful drain ends the run: clients quiesce first, then the
	// provider stops admitting, finishes in-flight handlers, flushes
	// sinks, and tears down.
	res.DrainErr = cluster.Drain(overloadDrainTimeout)
	shutdown = false
	return res, nil
}

// runPhase runs fn on every (client, issuer) pair as application ULTs
// and joins them.
func runPhase(clients []*margo.Instance, issuers int, name string, fn func(self *abt.ULT, inst *margo.Instance, issuer int)) {
	var wg sync.WaitGroup
	for _, inst := range clients {
		for k := 0; k < issuers; k++ {
			wg.Add(1)
			inst, k := inst, k
			inst.Run(fmt.Sprintf("%s-%d", name, k), func(self *abt.ULT) {
				defer wg.Done()
				fn(self, inst, k)
			})
		}
	}
	wg.Wait()
}
