package experiments

import (
	"fmt"
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
	// requests (the ForwardOpts of Forward).
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
	// StormMaxInFlight is the server's admission cap (its watermark at
	// half of it), so the handler queue is provably bounded regardless of
	// drain speed.
	StormMaxInFlight = 8
	// recoveryPace is the inter-op sleep during recovery: 24 issuers at
	// 10ms ≈ 2.4k ops/s, well under the provider's capacity, so recovery
	// demand is genuinely sustainable.
	recoveryPace = 10 * time.Millisecond
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

// OverloadResult is the storm report. Its Run's phases are the storm
// and the recovery, and its counters hold the shed, expired and breaker
// decisions.
type OverloadResult struct {
	Config OverloadConfig
	*Run

	// QueueHWM is the server handler pool's size high-watermark; the
	// MaxInFlight admission cap bounds it.
	QueueHWM int64

	// FailedServerSpans counts Failed target-side spans in the merged
	// trace — shed and expired decisions as sym trace reconstructs them
	// (each rejection must close as one Failed SERVER span, not dangle).
	FailedServerSpans int

	// ServerPVars is the server's profile-dump PVar block (shed,
	// expired, and breaker counters as the offline analysis scripts
	// read them).
	ServerPVars map[string]uint64
}

// RunOverload drives the storm scenario as the run "overload":
// saturate, shed, trip breakers, recover, drain. See OverloadResult for
// the facts the smoke test asserts on.
func RunOverload(cfg OverloadConfig, metricsAddr, out string) (*OverloadResult, error) {
	var server *margo.Instance
	var clients []*margo.Instance
	store := &stormStore{keys: make(map[string]bool)}
	res := &OverloadResult{Config: cfg}
	s := Scenario{Name: "overload"}
	s.Build = func(c *Cluster) error {
		// One deliberately undersized provider.
		var err error
		if server, err = c.Start(ProcessOptions{
			Mode: margo.ModeServer, Node: "overload-server", Name: "provider",
			HandlerStreams: StormHandlerStreams,
			Stage:          core.StageFull,
			Overload: &margo.OverloadPolicy{
				Watermark:   StormMaxInFlight / 2,
				MaxInFlight: StormMaxInFlight,
			},
		}); err != nil {
			return err
		}
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
			return err
		}

		// The clients' policy enables the breaker (threshold 3, 20ms
		// cooldown), 5 attempts with backoffs whose sum exceeds the
		// cooldown (so recovery-phase retries ride out an open circuit
		// instead of exhausting under it), and no budget bucket so the
		// run is deterministic.
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
		for i := 0; i < StormClients; i++ {
			inst, err := c.Start(ProcessOptions{
				Mode: margo.ModeClient,
				Node: fmt.Sprintf("overload-client%d", i), Name: "storm",
				Stage: core.StageFull,
				Retry: retry,
			})
			if err != nil {
				return err
			}
			if err := inst.RegisterClient(RPCStormPut); err != nil {
				return err
			}
			clients = append(clients, inst)
		}
		return nil
	}
	s.Drive = func(_ *Cluster, r *Run) error {
		target := server.Addr()
		// Phase 1 — storm: every issuer fires back-to-back
		// deadline-stamped puts. Demand exceeds capacity several times
		// over, so admission control must shed, deadlines must expire,
		// and breakers must trip. Refused puts are the point, not errors.
		r.drivePhase("storm", clients, StormIssuersPerClient, cfg.StormOps, 0,
			func(self *abt.ULT, c, issuer, op int) (string, string, error) {
				key := fmt.Sprintf("storm/%s/%d/%d", clients[c].Addr(), issuer, op)
				return key, "", clients[c].Forward(self, target, RPCStormPut,
					&stormArgs{Key: key, Val: []byte("v")}, nil,
					margo.ForwardOpts{Deadline: time.Now().Add(StormDeadline)})
			})
		// Phase 2 — recovery: the storm stops and issuers pace
		// themselves. Open breakers fast-fail the first few ops,
		// cooldowns elapse, half-open probes succeed against the now-idle
		// provider, circuits close, and goodput returns.
		r.drivePhase("recovery", clients, StormIssuersPerClient, cfg.RecoveryOps, recoveryPace,
			func(self *abt.ULT, c, issuer, op int) (string, string, error) {
				key := fmt.Sprintf("recovery/%s/%d/%d", clients[c].Addr(), issuer, op)
				return key, "", clients[c].Forward(self, target, RPCStormPut,
					&stormArgs{Key: key, Val: []byte("v")}, nil)
			})
		return nil
	}
	// Never-lie audit: every key a client saw acknowledged must be in the
	// store. An ack only leaves the handler after the put committed, so
	// any miss here is an acked-then-lost bug. (The cluster is idle; the
	// map is quiescent.)
	s.Audit = func(_ *Cluster, r *Run) error {
		for _, op := range r.acked {
			if !store.keys[op.key] {
				r.LostAcked++
			}
		}
		res.QueueHWM = server.HandlerPool().SizeHighWatermark()
		return nil
	}
	run, err := Execute(s, metricsAddr, out)
	if err != nil {
		return nil, err
	}
	res.Run = run

	// Profile and trace visibility of the decisions.
	for _, p := range run.ProfileDumps {
		if p.Entity == server.Addr() {
			res.ServerPVars = p.PVars
		}
	}
	run.Traces.EachRequest(func(_ uint64, _ int, spans []analysis.Span) {
		for _, sp := range spans {
			if sp.Kind == "SERVER" && sp.Failed {
				res.FailedServerSpans++
			}
		}
	})
	return res, nil
}
