package margo

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
)

func TestPanickingHandlerStillResponds(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	srv.Register("boom_rpc", func(ctx *Context) {
		panic("handler exploded")
	})
	cli.RegisterClient("boom_rpc")
	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "boom_rpc", &mercury.Void{}, nil)
	})
	if !errors.Is(err, mercury.ErrHandlerFail) || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
	// The service keeps working after the panic.
	srv.Register("ok_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("ok_rpc")
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "ok_rpc", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatalf("follow-up rpc: %v", err)
	}
}

func TestPanicAfterRespondDoesNotDoubleRespond(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	srv.Register("late_boom", func(ctx *Context) {
		ctx.Respond(mercury.Void{})
		panic("after responding")
	})
	cli.RegisterClient("late_boom")
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "late_boom", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatalf("err = %v, want success (respond happened before panic)", err)
	}
}

func TestForwardTimeoutFiresOnSilentServer(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	release := make(chan struct{})
	srv.Register("stuck_rpc", func(ctx *Context) {
		<-release // simulates a hung backend
		ctx.Respond(mercury.Void{})
	})
	defer close(release)
	cli.RegisterClient("stuck_rpc")

	start := time.Now()
	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "stuck_rpc", &mercury.Void{}, nil, ForwardOpts{Timeout: 30 * time.Millisecond})
	})
	if !errors.Is(err, mercury.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The late response is dropped as stale, not delivered.
	time.Sleep(10 * time.Millisecond)
	if cli.InFlight() != 0 {
		t.Fatalf("InFlight = %d after timeout", cli.InFlight())
	}
}

func TestForwardTimeoutNotFiredOnFastServer(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	srv.Register("fast_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("fast_rpc")
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "fast_rpc", &mercury.Void{}, nil, ForwardOpts{Timeout: 5 * time.Second})
	}); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestClockSkewPreservesLamportOrder(t *testing.T) {
	// Skew the client's clock far into the past: raw timestamps now
	// disorder the events across processes, but the Lamport orders must
	// stay causal — the paper's reason for implementing Lamport clocks.
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	cli.Profiler().SetClockSkew(-time.Hour)
	srv.Register("skewed_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("skewed_rpc")
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "skewed_rpc", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatal(err)
	}

	find := func(evs []core.Event, k core.EventKind) core.Event {
		for _, e := range evs {
			if e.Kind == k {
				return e
			}
		}
		t.Fatalf("missing %v", k)
		return core.Event{}
	}
	t1 := find(cli.Profiler().TraceEvents(), core.EvOriginStart)
	t5 := find(srv.Profiler().TraceEvents(), core.EvTargetStart)
	// Wall clocks disagree wildly...
	if t1.Timestamp >= t5.Timestamp-int64(30*time.Minute) {
		t.Fatalf("expected skewed timestamps: t1=%d t5=%d", t1.Timestamp, t5.Timestamp)
	}
	// ...but causal order holds.
	if !(t1.Order < t5.Order) {
		t.Fatalf("lamport order broken: %d >= %d", t1.Order, t5.Order)
	}
}

// TestDrainWaitsForInflightAndShedsNew: Drain must stop admitting new
// requests immediately (they shed with ErrOverloaded) while the
// in-flight handler runs to completion and gets its response out — the
// graceful half of graceful drain.
func TestDrainWaitsForInflightAndShedsNew(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})

	gate := abt.NewEventual()
	srv.Register("slow_rpc", func(ctx *Context) {
		gate.Wait(ctx.Self)
		ctx.Respond(mercury.Void{})
	})
	cli.RegisterClient("slow_rpc")

	// Park one handler mid-request.
	var inflightErr error
	inflight := cli.Run("inflight", func(self *abt.ULT) {
		inflightErr = cli.Forward(self, srv.Addr(), "slow_rpc", &mercury.Void{}, nil)
	})
	waitFor(t, func() bool { return srv.HandlersInFlight() == 1 })

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()
	waitFor(t, srv.draining.Load)

	// A request arriving during the drain is shed, not queued.
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "slow_rpc", &mercury.Void{}, nil)
	}); !errors.Is(err, mercury.ErrOverloaded) {
		t.Fatalf("forward during drain: %v, want ErrOverloaded", err)
	}

	// The drain must still be waiting on the parked handler.
	select {
	case err := <-drainDone:
		t.Fatalf("drain completed with handler in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	// Release the handler: the in-flight request completes successfully
	// and the drain finishes clean.
	gate.Set(nil)
	if err := inflight.Join(nil); err != nil {
		t.Fatalf("inflight ULT: %v", err)
	}
	if inflightErr != nil {
		t.Fatalf("in-flight forward across drain: %v", inflightErr)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not complete after handler finished")
	}
}

// TestHandlerPanicDuringDrain: a handler that panics while the instance
// is draining must not wedge the drain — the panic-recovery path still
// responds (an error, flagged Failed), the in-flight count drops, and
// Drain completes.
func TestHandlerPanicDuringDrain(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})

	gate := abt.NewEventual()
	srv.Register("doomed_rpc", func(ctx *Context) {
		gate.Wait(ctx.Self)
		panic("backend exploded mid-drain")
	})
	cli.RegisterClient("doomed_rpc")

	var fwdErr error
	fwd := cli.Run("doomed", func(self *abt.ULT) {
		fwdErr = cli.Forward(self, srv.Addr(), "doomed_rpc", &mercury.Void{}, nil)
	})
	waitFor(t, func() bool { return srv.HandlersInFlight() == 1 })

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()
	waitFor(t, srv.draining.Load)

	gate.Set(nil) // handler resumes and panics while draining
	if err := fwd.Join(nil); err != nil {
		t.Fatalf("client ULT: %v", err)
	}
	if fwdErr == nil || !strings.Contains(fwdErr.Error(), "panicked") {
		t.Fatalf("forward to panicking handler: %v, want handler-panic error", fwdErr)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain after handler panic: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain wedged by panicking handler")
	}
}

// TestShedRequestStitchesSingleFailedTrace: a shed decision must close
// its trace span — exactly one Failed SERVER span per shed request, no
// dangling EvTargetStart — so sym trace renders rejections instead of
// losing them.
func TestShedRequestStitchesSingleFailedTrace(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull,
		Overload: &OverloadPolicy{MaxInFlight: 1, Watermark: 100}})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})

	gate := abt.NewEventual()
	srv.Register("occupied_rpc", func(ctx *Context) {
		gate.Wait(ctx.Self)
		ctx.Respond(mercury.Void{})
	})
	cli.RegisterClient("occupied_rpc")

	// Occupy the single admission slot, then let a second request hit
	// the MaxInFlight cap deterministically.
	occupied := cli.Run("occupier", func(self *abt.ULT) {
		cli.Forward(self, srv.Addr(), "occupied_rpc", &mercury.Void{}, nil)
	})
	waitFor(t, func() bool { return srv.HandlersInFlight() == 1 })
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "occupied_rpc", &mercury.Void{}, nil)
	}); !errors.Is(err, mercury.ErrOverloaded) {
		t.Fatalf("forward over MaxInFlight: %v, want ErrOverloaded", err)
	}
	gate.Set(nil)
	if err := occupied.Join(nil); err != nil {
		t.Fatalf("occupier ULT: %v", err)
	}

	// Merge both sides' events and find the shed request: it has a
	// Failed SERVER span on the target.
	ts := analysis.MergeTraces([]*core.TraceDump{cli.Profiler().DumpTrace(), srv.Profiler().DumpTrace()})
	type targetEvents struct{ starts, ends, failedEnds int }
	byReq := map[uint64]*targetEvents{}
	ts.EachEvent(func(e *core.Event) {
		c := byReq[e.RequestID]
		if c == nil {
			c = &targetEvents{}
			byReq[e.RequestID] = c
		}
		switch e.Kind {
		case core.EvTargetStart:
			c.starts++
		case core.EvTargetEnd:
			c.ends++
			if e.Failed {
				c.failedEnds++
			}
		}
	})
	shedReqs := 0
	ts.EachRequest(func(id uint64, _ int, spans []analysis.Span) {
		c := byReq[id]
		starts, ends, failedEnds := c.starts, c.ends, c.failedEnds
		if failedEnds == 0 {
			return
		}
		shedReqs++
		// The rejection pairs exactly: one start, one Failed end.
		if starts != 1 || ends != 1 {
			t.Errorf("request %d: %d target starts / %d ends, want 1/1", id, starts, ends)
		}
		server := 0
		for _, sp := range spans {
			if sp.Kind == "SERVER" {
				server++
				if !sp.Failed {
					t.Errorf("request %d: shed SERVER span not Failed", id)
				}
			}
		}
		if server != 1 {
			t.Errorf("request %d: %d SERVER spans, want exactly 1", id, server)
		}
	})
	if shedReqs != 1 {
		t.Fatalf("%d requests with Failed server spans, want 1 (the shed one)", shedReqs)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// unencodable is an input whose Proc fails: the request never leaves
// the origin.
type unencodable struct{}

func (unencodable) Proc(*mercury.Proc) error { return errors.New("unencodable input") }

// TestEncodeFailureClosesOriginSpan: an input that fails to encode, on
// the single-forward path and in the coalescer, still closes the t1 its
// attempt stamped with a Failed t14, so the request is neither dangling
// in the trace nor missing from the origin profile, and its critical
// path is a failed attempt rather than a missing one. (IncompleteRequests
// counts it either way: it has origin events and no t5/t8.)
func TestEncodeFailureClosesOriginSpan(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull,
		Batch: &batch.Policy{MaxOps: 8, MaxDelay: time.Millisecond}})
	registerBatchEcho(t, srv, cli, "enc_rpc")

	if err := call(t, cli, func(self *abt.ULT) error {
		if err := cli.Forward(self, srv.Addr(), "enc_rpc", unencodable{}, nil); err == nil {
			t.Error("Forward of an unencodable input succeeded")
		}
		if err := forwardOne(cli, self, srv.Addr(), "enc_rpc", unencodable{}, nil); err == nil {
			t.Error("ForwardMany of an unencodable input succeeded")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	evs := cli.Profiler().TraceEvents()
	starts, ends := map[uint64]int{}, map[uint64]int{}
	for _, ev := range evs {
		switch ev.Kind {
		case core.EvOriginStart:
			starts[ev.RequestID]++
		case core.EvOriginEnd:
			if !ev.Failed {
				t.Errorf("request %#x: origin_end not marked Failed", ev.RequestID)
			}
			ends[ev.RequestID]++
		}
	}
	if len(starts) != 2 {
		t.Fatalf("%d requests started, want 2 (one per path): %+v", len(starts), evs)
	}
	for id, n := range starts {
		if ends[id] != n {
			t.Errorf("request %#x: %d origin_start, %d origin_end", id, n, ends[id])
		}
	}
	var calls uint64
	for _, st := range cli.Profiler().OriginStats() {
		calls += st.Count
	}
	if calls != 2 {
		t.Errorf("origin profile holds %d calls, want the 2 failed attempts", calls)
	}
	ts := analysis.MergeTraces([]*core.TraceDump{cli.Profiler().DumpTrace(), srv.Profiler().DumpTrace()})
	if _, st := analysis.ExtractPaths(ts); st.Extracted != 2 || st.Failed != 2 || st.Incomplete != 0 {
		t.Errorf("paths: %+v, want 2 extracted, both failed, none incomplete", st)
	}
}

// TestForwardRefusesTwoOpts: Forward takes at most one ForwardOpts, and
// refuses more before anything is sent or counted in flight.
func TestForwardRefusesTwoOpts(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	srv.Register("two_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("two_rpc")
	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "two_rpc", mercury.Void{}, nil, ForwardOpts{}, ForwardOpts{Timeout: time.Second})
	})
	if err == nil || !strings.Contains(err.Error(), "at most one ForwardOpts") {
		t.Fatalf("Forward with two ForwardOpts = %v", err)
	}
	if n := cli.Profiler().TraceLen(); n != 0 || cli.InFlight() != 0 {
		t.Fatalf("a refused Forward left %d trace events, %d in flight", n, cli.InFlight())
	}
}
