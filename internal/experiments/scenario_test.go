package experiments

import (
	"strings"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
)

// TestExecuteFailsARunThatNeverGoesIdle: a forward whose handler does
// not respond within the settle timeout keeps its client busy, and
// Execute fails the run, naming the scenario and the busy process,
// instead of auditing and analyzing it.
func TestExecuteFailsARunThatNeverGoesIdle(t *testing.T) {
	defer func(d time.Duration) { settleTimeout = d }(settleTimeout)
	settleTimeout = 50 * time.Millisecond

	var srv, cli *margo.Instance
	s := Scenario{Name: "stuck"}
	s.Build = func(c *Cluster) error {
		var err error
		if srv, err = c.Start(ProcessOptions{Mode: margo.ModeServer, Node: "n1", Name: "srv"}); err != nil {
			return err
		}
		if cli, err = c.Start(ProcessOptions{Mode: margo.ModeClient, Node: "n0", Name: "cli"}); err != nil {
			return err
		}
		// The handler answers only after the settle window has closed;
		// the drain that ends the run waits for it.
		if err := srv.Register("silent_rpc", func(ctx *margo.Context) {
			ctx.Self.Sleep(300 * time.Millisecond)
			ctx.Respond(mercury.Void{})
		}); err != nil {
			return err
		}
		return cli.RegisterClient("silent_rpc")
	}
	s.Drive = func(*Cluster, *Run) error {
		cli.Run("silent", func(self *abt.ULT) {
			cli.Forward(self, srv.Addr(), "silent_rpc", &mercury.Void{}, nil)
		})
		for cli.TelemetrySample().RPCsInFlight == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}
	s.Audit = func(*Cluster, *Run) error {
		t.Error("a run that never went idle was audited")
		return nil
	}
	_, err := Execute(s, "", "")
	if err == nil || !strings.Contains(err.Error(), "stuck: did not go idle") || !strings.Contains(err.Error(), cli.Addr()) {
		t.Fatalf("Execute = %v, want an error naming the scenario and %s", err, cli.Addr())
	}
}
