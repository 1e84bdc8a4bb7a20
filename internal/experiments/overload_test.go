package experiments

import (
	"strings"
	"testing"

	"symbiosys/internal/margo"
)

// TestOverloadSmoke is the `make overload-smoke` acceptance gate: the
// storm must be shed without lying to clients, the handler queue must
// stay bounded by the admission cap, breakers must trip under the storm
// and heal during recovery, and the decisions must be visible on every
// measurement surface (live /metrics, profile PVars, trace spans).
func TestOverloadSmoke(t *testing.T) {
	cfg := OverloadConfig{StormOps: 40, RecoveryOps: 20}
	if testing.Short() {
		cfg.StormOps = 12
		cfg.RecoveryOps = 12
	}
	res, err := RunOverload(cfg, "127.0.0.1:0", "")
	if err != nil {
		t.Fatalf("RunOverload: %v", err)
	}

	// Never lie to the client: zero acknowledged-then-lost operations.
	if res.LostAcked != 0 {
		t.Errorf("acked-then-lost ops = %d, want 0", res.LostAcked)
	}

	// The admission cap bounds the handler queue even though demand
	// exceeded capacity several times over.
	if max := int64(StormMaxInFlight); res.QueueHWM > max {
		t.Errorf("handler queue high-watermark %d exceeds MaxInFlight %d",
			res.QueueHWM, max)
	}

	// The storm must actually have overloaded the server and tripped
	// client breakers; otherwise the scenario is not exercising the
	// control plane.
	if res.Counters.Shed == 0 {
		t.Error("storm shed no requests; scenario not saturating")
	}
	if res.Counters.BreakerTrips == 0 {
		t.Error("no breaker trips during the storm")
	}

	// Goodput must recover once the storm stops: half-open probes
	// succeed against the idle provider and circuits close.
	storm, recovery := res.Phases[0], res.Phases[1]
	if got := recovery.SuccessRate(); got < 0.9 {
		t.Errorf("recovery success rate %.3f, want >= 0.9", got)
	}
	if recovery.SuccessRate() <= storm.SuccessRate() {
		t.Errorf("recovery success rate %.3f not above storm rate %.3f",
			recovery.SuccessRate(), storm.SuccessRate())
	}

	// The graceful drain must complete inside its timeout.
	if res.DrainErr != nil {
		t.Errorf("drain: %v", res.DrainErr)
	}

	// Shed decisions surface on the live telemetry plane...
	if !strings.Contains(res.MetricsText, "symbiosys_overload_shed_total") {
		t.Error("/metrics exposition missing symbiosys_overload_shed_total")
	}
	// ...in the server's profile dump PVars...
	if res.ServerPVars == nil {
		t.Fatal("server profile dump carries no PVar block")
	}
	if res.ServerPVars[margo.PVarNumRequestsShed] == 0 {
		t.Error("profile PVars show zero shed requests")
	}
	// ...and as Failed target-side spans in the reconstructed trace.
	if res.FailedServerSpans == 0 {
		t.Error("no Failed server spans in the merged trace")
	}
}
