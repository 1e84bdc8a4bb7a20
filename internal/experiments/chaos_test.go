package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// TestChaosSmoke is the `make chaos-smoke` target: a short C2-shaped
// run under the seeded 1% drop + 5ms delay plan. It asserts the
// acceptance bar of the failure-path hardening — zero lost client
// operations (every injected loss absorbed by a retry), retries
// actually happening and visible in the live /metrics exposition, and
// a clean shutdown.
func TestChaosSmoke(t *testing.T) {
	base := scaled(C2, 16)
	// Smaller batches mean more request/response messages, so the 1%
	// plan reliably bites even in a short run.
	base.BatchSize = 4
	addr := freePort(t)

	cfg := ChaosConfig{
		Base:      base,
		DropProb:  0.01,
		DelayProb: 0.05,
		Delay:     5 * time.Millisecond,
		Seed:      42,
	}

	type outcome struct {
		res *ChaosResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunChaos(cfg, addr, "")
		done <- outcome{res, err}
	}()

	// Scrape while the workload runs: the resilience families must be
	// part of the live exposition, not only the end-of-run report.
	var body string
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := scrape(addr); err == nil {
			body = b
			if strings.Contains(b, "symbiosys_rpc_retries_total") &&
				strings.Contains(b, "symbiosys_fault_drops_total") {
				break
			}
		}
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatal(out.err)
			}
			done <- out
			deadline = time.Now() // endpoint is gone; judge the last scrape
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{
		"symbiosys_rpc_retries_total",
		"symbiosys_rpc_timeouts_total",
		"symbiosys_fault_drops_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("live exposition missing %q", want)
		}
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res

	if f := res.Faulted; f.EventsStored != res.ExpectedEvents || f.LostAcked != 0 {
		t.Fatalf("stored %d of %d client operations under the fault plan, %d acked then lost",
			f.EventsStored, res.ExpectedEvents, f.LostAcked)
	}
	c := res.Faulted.Counters
	if c.Faults.Drops == 0 {
		t.Fatal("fault plan injected no drops; smoke run has no teeth (seed/workload changed?)")
	}
	if c.Retries == 0 {
		t.Fatalf("injected %d drops but recorded no retries", c.Faults.Drops)
	}
	if c.Exhausted != 0 {
		t.Fatalf("%d forwards exhausted their retries at 1%% drop", c.Exhausted)
	}
	if res.Faulted.DrainErr != nil {
		t.Fatalf("drain: %v", res.Faulted.DrainErr)
	}
	if res.RetryAmplification <= 1 {
		t.Errorf("retry amplification = %v, want > 1 with retries recorded", res.RetryAmplification)
	}
	if res.GoodputEventsPerSec <= 0 {
		t.Errorf("goodput = %v events/s", res.GoodputEventsPerSec)
	}
	if res.P99Chaos <= 0 {
		t.Errorf("no chaos p99 recorded")
	}
}

// TestChaosCompareClean exercises the clean-baseline path on a tiny
// workload: both runs complete, and the p99 inflation is computable.
func TestChaosCompareClean(t *testing.T) {
	base := scaled(C2, 32)
	base.TotalClients = 2
	base.ClientsPerNode = 2
	base.BatchSize = 8

	res, err := RunChaos(ChaosConfig{
		Base:         base,
		DropProb:     0.02,
		DelayProb:    0.2,
		Delay:        5 * time.Millisecond,
		Seed:         7,
		CompareClean: true,
	}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean == nil {
		t.Fatal("CompareClean did not produce a baseline run")
	}
	if c := res.Clean.Counters; c.Retries != 0 || c.Faults.Drops != 0 {
		t.Fatalf("clean baseline saw faults: %+v retries=%d", c.Faults, c.Retries)
	}
	if f := res.Faulted; f.EventsStored != res.ExpectedEvents || f.LostAcked != 0 {
		t.Fatalf("stored %d of %d events, %d acked then lost", f.EventsStored, res.ExpectedEvents, f.LostAcked)
	}
	if res.P99Clean <= 0 || res.P99Chaos <= 0 {
		t.Fatalf("p99s not recorded: clean=%v chaos=%v", res.P99Clean, res.P99Chaos)
	}
	if res.P99Inflation() <= 0 {
		t.Fatalf("p99 inflation = %v", res.P99Inflation())
	}
}

// TestClusterDrainWithInflightUnderFaults: Cluster.Drain during live
// traffic on a faulty fabric must finish clean — clients drain first
// (their in-flight forwards, including fault-triggered retries, run to
// completion against a still-serving provider), then the server — and
// no completed forward may be lost.
func TestClusterDrainWithInflightUnderFaults(t *testing.T) {
	cluster := NewCluster(DefaultFabric())
	shutdown := true
	defer func() {
		if shutdown {
			cluster.Shutdown()
		}
	}()

	plan := na.NewFaultPlan(7)
	plan.Default = na.FaultRule{DelayProb: 0.5, Delay: 2 * time.Millisecond}
	cluster.Fabric.SetFaultPlan(plan)

	srv, err := cluster.Start(ProcessOptions{Mode: margo.ModeServer, Node: "dn1", Name: "srv"})
	if err != nil {
		t.Fatal(err)
	}
	pol := margo.DefaultRetryPolicy()
	cli, err := cluster.Start(ProcessOptions{Mode: margo.ModeClient, Node: "dn0", Name: "cli",
		Retry: &pol})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("drain_rpc", func(ctx *margo.Context) {
		ctx.Compute(5 * time.Millisecond)
		ctx.Respond(mercury.Void{})
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterClient("drain_rpc"); err != nil {
		t.Fatal(err)
	}

	const inflight = 6
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	for k := 0; k < inflight; k++ {
		k := k
		wg.Add(1)
		cli.Run("drainer", func(self *abt.ULT) {
			defer wg.Done()
			errs[k] = cli.Forward(self, srv.Addr(), "drain_rpc", &mercury.Void{}, nil)
		})
	}
	// Drain while the forwards are mid-flight; the drain must wait for
	// them rather than cutting the fabric out from under the retries.
	for cli.TelemetrySample().RPCsInFlight == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := cluster.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain with in-flight traffic: %v", err)
	}
	shutdown = false
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Errorf("forward %d across drain: %v", k, err)
		}
	}
}
