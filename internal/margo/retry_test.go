package margo

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// testRetry returns p with a short default backoff.
func testRetry(p RetryPolicy) *RetryPolicy {
	if p.InitialBackoff == 0 {
		p.InitialBackoff = 5 * time.Millisecond
	}
	return &p
}

// TestRetryHealsAfterPartition: a partitioned link fails sends with an
// immediate EvError; the retry policy re-issues across backoffs and the
// forward succeeds once the partition heals mid-sequence. The retried
// attempts must share one request ID so the trace stitches.
func TestRetryHealsAfterPartition(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull,
		Retry: testRetry(RetryPolicy{MaxAttempts: 6, InitialBackoff: 20 * time.Millisecond})})

	srv.Register("healed_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("healed_rpc")

	c.fabric.SetFaultPlan(na.NewFaultPlan(1).PartitionOneWay(cli.Addr(), srv.Addr()))
	heal := time.AfterFunc(50*time.Millisecond, func() { c.fabric.SetFaultPlan(nil) })
	defer heal.Stop()

	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "healed_rpc", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatalf("forward across healing partition: %v", err)
	}
	rs := cli.RetryStats()
	if rs.Retries == 0 {
		t.Fatal("partition healed without any recorded retries")
	}
	if cli.InFlight() != 0 {
		t.Fatalf("InFlight = %d", cli.InFlight())
	}

	// Every attempt's trace events carry the same request ID: the
	// retried request stitches into one trace, with the failed attempts
	// visible as Failed client spans and exactly one successful span.
	evs := cli.Profiler().TraceEvents()
	if len(evs) == 0 {
		t.Fatal("no trace events")
	}
	reqID := evs[0].RequestID
	starts := 0
	for _, e := range evs {
		if e.RequestID != reqID {
			t.Fatalf("attempt recorded under request %d, want %d", e.RequestID, reqID)
		}
		if e.Kind == core.EvOriginStart {
			starts++
		}
	}
	if starts < 2 {
		t.Fatalf("%d origin starts, want >= 2 (retried attempts)", starts)
	}
	spans := analysis.MergeTraces([]*core.TraceDump{core.NewTraceDump("cli", 0, 0, evs)}).Spans(reqID)
	if len(spans) != starts {
		t.Fatalf("%d spans from %d attempts: retries left dangling starts", len(spans), starts)
	}
	okSpans, failedSpans := 0, 0
	for _, s := range spans {
		if s.Failed {
			failedSpans++
		} else {
			okSpans++
		}
	}
	if okSpans != 1 || failedSpans != starts-1 {
		t.Fatalf("spans ok=%d failed=%d, want 1/%d", okSpans, failedSpans, starts-1)
	}
}

// TestRetryTimeoutGatedOnIdempotency: per-try timeouts are only retried
// for RPCs opted in via MarkIdempotent — a timed-out request may have
// executed at the target.
func TestRetryTimeoutGatedOnIdempotency(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
		Retry: testRetry(RetryPolicy{MaxAttempts: 3, PerTryTimeout: 30 * time.Millisecond,
			InitialBackoff: time.Millisecond})})

	release := make(chan struct{})
	handler := func(ctx *Context) {
		<-release
		ctx.Respond(mercury.Void{})
	}
	defer close(release)
	srv.Register("stuck_plain", handler)
	srv.Register("stuck_idem", handler)
	cli.RegisterClient("stuck_plain")
	if err := cli.RegisterClientIdempotent("stuck_idem"); err != nil {
		t.Fatal(err)
	}
	if !cli.Idempotent("stuck_idem") || cli.Idempotent("stuck_plain") {
		t.Fatal("idempotency registry wrong")
	}

	// Non-idempotent: one attempt, not retried, surfaces ErrCanceled.
	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "stuck_plain", &mercury.Void{}, nil)
	})
	if !errors.Is(err, mercury.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	rs := cli.RetryStats()
	if rs.Retries != 0 || rs.Timeouts != 1 {
		t.Fatalf("stats after non-idempotent timeout = %+v", rs)
	}

	// Idempotent: retried to exhaustion; the final error still reports
	// the timeout (ErrCanceled) wrapped in the exhaustion marker.
	err = call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "stuck_idem", &mercury.Void{}, nil)
	})
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, mercury.ErrCanceled) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded wrapping ErrCanceled", err)
	}
	rs = cli.RetryStats()
	if rs.Retries != 2 || rs.Timeouts != 4 || rs.Exhausted != 1 {
		t.Fatalf("stats after idempotent exhaustion = %+v", rs)
	}
	if cli.InFlight() != 0 {
		t.Fatalf("InFlight = %d", cli.InFlight())
	}
}

// TestRetryBudgetExhaustion: the token bucket stops retry storms — once
// drained, a retryable failure is surfaced instead of re-issued.
func TestRetryBudgetExhaustion(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
		Retry: testRetry(RetryPolicy{MaxAttempts: 10, Budget: 2, InitialBackoff: time.Millisecond})})
	srv.Register("never_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("never_rpc")
	c.fabric.SetFaultPlan(na.NewFaultPlan(1).PartitionOneWay(cli.Addr(), srv.Addr()))

	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "never_rpc", &mercury.Void{}, nil)
	})
	if !errors.Is(err, ErrRetryBudgetExhausted) || !errors.Is(err, na.ErrPartitioned) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted wrapping ErrPartitioned", err)
	}
	rs := cli.RetryStats()
	if rs.Retries != 2 || rs.Exhausted != 1 {
		t.Fatalf("stats = %+v, want 2 retries (budget) and 1 exhausted", rs)
	}
}

// TestForwardTimeoutRTTHammer hammers ForwardOpts.Timeout with the
// deadline set at ≈RTT, so the cancel timer and genuine response
// delivery race on nearly every call. The regression bar: no double completion (panic),
// no lost in-flight decrement, and every call resolves to success or
// ErrCanceled — nothing else.
func TestForwardTimeoutRTTHammer(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	srv.Register("echo_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("echo_rpc")

	// Measure the RTT once, warm.
	start := time.Now()
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "echo_rpc", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)

	const calls = 200
	errs := make([]error, calls)
	ults := make([]*abt.ULT, calls)
	for k := 0; k < calls; k++ {
		idx := k
		ults[k] = cli.Run("hammer", func(self *abt.ULT) {
			errs[idx] = cli.Forward(self, srv.Addr(), "echo_rpc", &mercury.Void{}, nil, ForwardOpts{Timeout: rtt})
		})
	}
	var canceled, succeeded int
	for k, u := range ults {
		u.Join(nil)
		switch {
		case errs[k] == nil:
			succeeded++
		case errors.Is(errs[k], mercury.ErrCanceled):
			canceled++
		default:
			t.Fatalf("call %d: unexpected error %v", k, errs[k])
		}
	}
	t.Logf("rtt=%v: %d succeeded, %d canceled", rtt, succeeded, canceled)
	if !cli.WaitIdle(5 * time.Second) {
		t.Fatalf("InFlight stuck at %d after hammer", cli.InFlight())
	}
	// The service still works afterwards.
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "echo_rpc", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatalf("post-hammer rpc: %v", err)
	}
}

// TestPanickingHandlerClosesTrace: the panic-recovery response must emit
// the terminal EvTargetEnd with the error flag, so stitching closes the
// t5→t8 span instead of leaving it dangling in an open trace.
func TestPanickingHandlerClosesTrace(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	srv.Register("boom_trace", func(ctx *Context) { panic("measured explosion") })
	cli.RegisterClient("boom_trace")

	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "boom_trace", &mercury.Void{}, nil)
	})
	if !errors.Is(err, mercury.ErrHandlerFail) {
		t.Fatalf("err = %v", err)
	}
	time.Sleep(10 * time.Millisecond) // let t13 callbacks land

	ts := analysis.MergeTraces([]*core.TraceDump{
		cli.Profiler().DumpTrace(), srv.Profiler().DumpTrace(),
	})
	var reqID uint64
	ts.EachEvent(func(e *core.Event) {
		if reqID == 0 && e.RPCName == "boom_trace" {
			reqID = e.RequestID
		}
	})
	if reqID == 0 {
		t.Fatal("no trace events for the panicking RPC")
	}
	spans := ts.Spans(reqID)
	var client, server *analysis.Span
	for i := range spans {
		switch spans[i].Kind {
		case "CLIENT":
			client = &spans[i]
		case "SERVER":
			server = &spans[i]
		}
	}
	if server == nil {
		t.Fatal("panicking handler left no closed SERVER span (t5->t8 gap)")
	}
	if !server.Failed {
		t.Fatal("SERVER span of a panicking handler not marked Failed")
	}
	if client == nil {
		t.Fatal("origin span did not close")
	}
	if !client.Failed {
		t.Fatal("CLIENT span of a failed RPC not marked Failed")
	}
}

// TestStaleResponseAfterCancel: a response arriving after the origin
// canceled the handle is dropped as stale — no double completion, no
// Lamport merge from the dead response, in-flight back to zero, and the
// drop observable via the num_stale_responses PVAR.
func TestStaleResponseAfterCancel(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	release := make(chan struct{})
	srv.Register("late_rpc", func(ctx *Context) {
		<-release
		ctx.Respond(mercury.Void{})
	})
	cli.RegisterClient("late_rpc")

	sess := cli.Mercury().PVars().InitSession()
	defer sess.Finalize()
	stale, err := sess.AllocHandleByName(mercury.PVarNumStaleResponses)
	if err != nil {
		t.Fatal(err)
	}
	readStale := func() uint64 {
		v, err := sess.Read(stale, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	err = call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "late_rpc", &mercury.Void{}, nil, ForwardOpts{Timeout: 20 * time.Millisecond})
	})
	if !errors.Is(err, mercury.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := readStale(); got != 0 {
		t.Fatalf("stale responses before release = %d", got)
	}
	clockBefore := cli.Profiler().Clock.Now()

	// Release the handler: its response reaches a client that no longer
	// has the handle posted.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for readStale() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late response never counted as stale")
		}
		time.Sleep(time.Millisecond)
	}
	if got := cli.Profiler().Clock.Now(); got != clockBefore {
		t.Fatalf("stale response moved the Lamport clock %d -> %d", clockBefore, got)
	}
	if cli.InFlight() != 0 {
		t.Fatalf("InFlight = %d", cli.InFlight())
	}
	// The client still services traffic (the handle was not corrupted).
	srv.Register("after_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("after_rpc")
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "after_rpc", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatalf("post-stale rpc: %v", err)
	}
}

// TestCanceledForwardReachesSinksOnce: a canceled RPC's events reach an
// attached streaming sink exactly once per attempt — one start and one
// Failed end for a single-attempt timeout, and no duplicated events when
// a retry policy re-issues under the same request ID.
func TestCanceledForwardReachesSinksOnce(t *testing.T) {
	var buf bytes.Buffer
	sink := core.NewJSONLTraceSink(&buf)

	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull,
		TraceSinks: []core.TraceSink{sink},
		Retry: testRetry(RetryPolicy{MaxAttempts: 2, PerTryTimeout: 25 * time.Millisecond,
			InitialBackoff: time.Millisecond})})
	release := make(chan struct{})
	srv.Register("sink_rpc", func(ctx *Context) {
		<-release
		ctx.Respond(mercury.Void{})
	})
	defer close(release)
	if err := cli.RegisterClientIdempotent("sink_rpc"); err != nil {
		t.Fatal(err)
	}

	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "sink_rpc", &mercury.Void{}, nil)
	})
	if !errors.Is(err, mercury.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if err := cli.Profiler().FlushSinks(); err != nil {
		t.Fatal(err)
	}
	evs, _, err := core.ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Two attempts, each exactly one start + one Failed end, all under
	// one request ID.
	var starts, ends int
	var reqID uint64
	for _, e := range evs {
		if reqID == 0 {
			reqID = e.RequestID
		}
		if e.RequestID != reqID {
			t.Fatalf("sink saw request %d and %d, want one", reqID, e.RequestID)
		}
		switch e.Kind {
		case core.EvOriginStart:
			starts++
		case core.EvOriginEnd:
			ends++
			if !e.Failed {
				t.Fatal("canceled attempt's end event not marked Failed")
			}
		}
	}
	if starts != 2 || ends != 2 {
		t.Fatalf("sink saw %d starts / %d ends, want exactly 2/2 (one per attempt)", starts, ends)
	}

	// Sticky sink-error path: a sink that fails keeps failing, the
	// Profiler counts it, and Shutdown surfaces it.
	boom := errors.New("sink full")
	cli2 := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli2", Stage: core.StageFull,
		TraceSinks: []core.TraceSink{failSink{err: boom}}})
	cli2.RegisterClient("sink_rpc")
	errRPC := call(t, cli2, func(self *abt.ULT) error {
		return cli2.Forward(self, srv.Addr(), "sink_rpc", &mercury.Void{}, nil, ForwardOpts{Timeout: 10 * time.Millisecond})
	})
	if !errors.Is(errRPC, mercury.ErrCanceled) {
		t.Fatalf("err = %v", errRPC)
	}
	if got := cli2.Profiler().SinkErrors(); got == 0 {
		t.Fatal("failing sink not counted")
	}
	if err := cli2.Shutdown(); !errors.Is(err, boom) {
		t.Fatalf("Shutdown = %v, want the sticky sink error", err)
	}
}

// failSink always fails, for the sticky-error path.
type failSink struct{ err error }

func (f failSink) WriteEvent(core.Event) error { return f.err }
func (f failSink) Flush() error                { return f.err }

// TestBreakerTripsOnPartition: fabric partition errors (the na EvError
// path) count toward the circuit breaker exactly like ErrOverloaded
// sheds — Threshold consecutive partitioned sends trip it open, further
// forwards fast-fail locally with ErrCircuitOpen, and after the cooldown
// a half-open probe against the healed link closes it again.
func TestBreakerTripsOnPartition(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
		Retry: testRetry(RetryPolicy{
			MaxAttempts: 1, // one attempt per Forward: each call is one breaker record
			Breaker:     &BreakerPolicy{Threshold: 3, Cooldown: 40 * time.Millisecond},
		})})

	srv.Register("part_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("part_rpc")

	fwd := func() error {
		return call(t, cli, func(self *abt.ULT) error {
			return cli.Forward(self, srv.Addr(), "part_rpc", &mercury.Void{}, nil)
		})
	}

	// Healthy baseline keeps the circuit closed.
	if err := fwd(); err != nil {
		t.Fatalf("clean forward: %v", err)
	}
	if st := cli.BreakerState(srv.Addr(), "part_rpc"); st != "closed" {
		t.Fatalf("breaker %s after success, want closed", st)
	}

	// Threshold consecutive partition failures trip the circuit.
	c.fabric.SetFaultPlan(na.NewFaultPlan(1).PartitionOneWay(cli.Addr(), srv.Addr()))
	for i := 0; i < 3; i++ {
		if err := fwd(); !errors.Is(err, na.ErrPartitioned) {
			t.Fatalf("forward %d under partition: %v, want ErrPartitioned", i, err)
		}
	}
	if st := cli.BreakerState(srv.Addr(), "part_rpc"); st != "open" {
		t.Fatalf("breaker %s after %d partition failures, want open", st, 3)
	}
	if trips := cli.OverloadStats().BreakerTrips; trips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", trips)
	}

	// While open, forwards fast-fail locally without touching the wire.
	if err := fwd(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("forward on open circuit: %v, want ErrCircuitOpen", err)
	}
	if ff := cli.OverloadStats().BreakerFastFails; ff == 0 {
		t.Fatal("no fast-fails recorded on an open circuit")
	}

	// Heal the link; after the cooldown a half-open probe closes it.
	c.fabric.SetFaultPlan(nil)
	time.Sleep(50 * time.Millisecond)
	if err := fwd(); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if st := cli.BreakerState(srv.Addr(), "part_rpc"); st != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}
}

// TestRetryWhileBreakerHalfOpen: with the circuit open and the provider
// healthy again, concurrent forwards race into the half-open window.
// Exactly one becomes the probe; the others fast-fail locally
// (ErrCircuitOpen is retryable) and succeed on a later attempt once the
// probe closes the circuit. Nobody gets stuck and nobody bypasses the
// single-probe gate.
func TestRetryWhileBreakerHalfOpen(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
		Retry: testRetry(RetryPolicy{
			MaxAttempts:    8,
			InitialBackoff: 10 * time.Millisecond,
			MaxBackoff:     20 * time.Millisecond,
			Breaker:        &BreakerPolicy{Threshold: 2, Cooldown: 30 * time.Millisecond},
		})})

	srv.Register("half_open_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("half_open_rpc")

	// Trip the breaker with partition failures, then heal immediately:
	// the provider is fine, only the circuit stands in the way.
	c.fabric.SetFaultPlan(na.NewFaultPlan(1).PartitionOneWay(cli.Addr(), srv.Addr()))
	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "half_open_rpc", &mercury.Void{}, nil)
	})
	if err == nil {
		t.Fatal("forward under partition succeeded")
	}
	if st := cli.BreakerState(srv.Addr(), "half_open_rpc"); st != "open" {
		t.Fatalf("breaker %s after partition failures, want open", st)
	}
	c.fabric.SetFaultPlan(nil)

	// Race several forwards into the cooldown/half-open window. The
	// retry loop must carry every one of them across the fast-fails.
	const racers = 4
	errs := make([]error, racers)
	ults := make([]*abt.ULT, racers)
	for k := 0; k < racers; k++ {
		k := k
		ults[k] = cli.Run("racer", func(self *abt.ULT) {
			errs[k] = cli.Forward(self, srv.Addr(), "half_open_rpc", &mercury.Void{}, nil)
		})
	}
	for _, u := range ults {
		if err := u.Join(nil); err != nil {
			t.Fatalf("racer ULT: %v", err)
		}
	}
	for k, err := range errs {
		if err != nil {
			t.Errorf("racer %d: %v", k, err)
		}
	}
	if st := cli.BreakerState(srv.Addr(), "half_open_rpc"); st != "closed" {
		t.Fatalf("breaker %s after recovery, want closed", st)
	}
	if ff := cli.OverloadStats().BreakerFastFails; ff == 0 {
		t.Fatal("no fast-fails: racers never hit the open/half-open gate")
	}
}
