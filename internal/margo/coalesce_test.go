package margo

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// forwardOne issues a single logical RPC through the coalescer: a
// ForwardMany of one op, so it shares a window with whatever other
// callers target the same (target, RPC) pair.
func forwardOne(i *Instance, self *abt.ULT, target, rpc string, in, out mercury.Procable) error {
	return i.ForwardMany(self, target, rpc, []mercury.Procable{in}, []mercury.Procable{out})[0]
}

// registerBatchEcho installs an echo handler for the coalescer tests:
// the response mirrors the request so entry cross-wiring is detectable.
func registerBatchEcho(t *testing.T, srv, cli *Instance, rpc string) {
	t.Helper()
	if err := srv.Register(rpc, func(ctx *Context) {
		var in kvArgs
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		ctx.Respond(&in)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterClient(rpc); err != nil {
		t.Fatal(err)
	}
}

// TestForwardBatchedConcurrentULTs: many ULTs issue single logical RPCs
// through the coalescer. Every op must complete with its own response
// (no cross-wiring between window slots), the ops must coalesce into
// fewer wire exchanges, and each op's trace chain must close with an
// EvOriginEnd stamped with the batch ID it traveled under.
func TestForwardBatchedConcurrentULTs(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull,
		Batch: &batch.Policy{MaxOps: 8, MaxDelay: 2 * time.Millisecond}})
	registerBatchEcho(t, srv, cli, "batch_echo")

	const ops = 32
	errs := make([]error, ops)
	outs := make([]kvArgs, ops)
	ults := make([]*abt.ULT, ops)
	for k := 0; k < ops; k++ {
		k := k
		ults[k] = cli.Run("issuer", func(self *abt.ULT) {
			in := kvArgs{Key: fmt.Sprintf("k%02d", k), Value: []byte(fmt.Sprintf("v%02d", k))}
			errs[k] = forwardOne(cli, self, srv.Addr(), "batch_echo", &in, &outs[k])
		})
	}
	for k, u := range ults {
		if err := u.Join(nil); err != nil {
			t.Fatalf("issuer %d: %v", k, err)
		}
		if errs[k] != nil {
			t.Fatalf("op %d: %v", k, errs[k])
		}
		if want := fmt.Sprintf("k%02d", k); outs[k].Key != want {
			t.Fatalf("op %d got entry for %q: window slots cross-wired", k, outs[k].Key)
		}
	}
	if !cli.WaitIdle(5 * time.Second) {
		t.Fatalf("InFlight stuck at %d", cli.InFlight())
	}

	bs := cli.BatchStats()
	if bs.Ops != ops {
		t.Fatalf("BatchStats.Ops = %d, want %d", bs.Ops, ops)
	}
	if bs.Flushes == 0 || bs.Flushes >= ops {
		t.Fatalf("Flushes = %d for %d ops: no coalescing", bs.Flushes, ops)
	}

	// Trace stitching: one origin chain per logical op, each end event
	// carrying a batch ID shared with its window companions.
	evs := cli.Profiler().TraceEvents()
	ends := 0
	batchIDs := map[uint64]bool{}
	reqIDs := map[uint64]bool{}
	for _, e := range evs {
		if e.RPCName != "batch_echo" || e.Kind != core.EvOriginEnd {
			continue
		}
		ends++
		if e.Failed {
			t.Fatalf("successful batched op recorded Failed end: %+v", e)
		}
		if e.BatchID == 0 {
			t.Fatalf("EvOriginEnd without batch ID: %+v", e)
		}
		batchIDs[e.BatchID] = true
		reqIDs[e.RequestID] = true
	}
	if ends != ops || len(reqIDs) != ops {
		t.Fatalf("%d origin ends over %d request IDs, want %d/%d", ends, len(reqIDs), ops, ops)
	}
	if uint64(len(batchIDs)) != bs.Flushes {
		t.Fatalf("%d distinct batch IDs vs %d flushes", len(batchIDs), bs.Flushes)
	}
}

// TestBatchFlushOnDrain: ops parked in a long-delay window must not
// stall a graceful drain — Drain flushes open windows immediately and
// every member completes normally.
func TestBatchFlushOnDrain(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
		Batch: &batch.Policy{MaxOps: 1024, MaxDelay: 500 * time.Millisecond}})
	registerBatchEcho(t, srv, cli, "drain_echo")

	const ops = 8
	errs := make([]error, ops)
	ults := make([]*abt.ULT, ops)
	for k := 0; k < ops; k++ {
		k := k
		ults[k] = cli.Run("issuer", func(self *abt.ULT) {
			errs[k] = forwardOne(cli, self, srv.Addr(), "drain_echo",
				&kvArgs{Key: "k", Value: []byte("v")}, nil)
		})
	}
	// Let every op park in the window: Drain flushes what is open when
	// it starts, and a later arrival would wait out the 500ms delay.
	co := cli.coalescerFor(srv.Addr(), "drain_echo")
	for parked := 0; parked < ops; time.Sleep(time.Millisecond) {
		co.mu.Lock()
		parked = len(co.ops)
		co.mu.Unlock()
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cli.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for k, u := range ults {
		u.Join(nil)
		if errs[k] != nil {
			t.Fatalf("op %d lost to drain: %v", k, errs[k])
		}
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("drain waited %v: open window was not flushed", elapsed)
	}
	bs := cli.BatchStats()
	if bs.FlushReasons["drain"] == 0 {
		t.Fatalf("no drain-reason flush recorded: %+v", bs.FlushReasons)
	}
	if bs.Ops != ops {
		t.Fatalf("Ops = %d, want %d", bs.Ops, ops)
	}
}

// TestBreakerTripsMidBatch: a batch that fails on the wire records once
// against the breaker; once open, the next whole window fast-fails
// locally with ErrCircuitOpen, and a healed link closes the circuit
// through a batched half-open probe.
func TestBreakerTripsMidBatch(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
		Retry: testRetry(RetryPolicy{MaxAttempts: 1,
			Breaker: &BreakerPolicy{Threshold: 1, Cooldown: 50 * time.Millisecond}}),
		Batch: &batch.Policy{MaxOps: 4, MaxDelay: time.Millisecond}})
	registerBatchEcho(t, srv, cli, "trip_echo")

	many := func() []error {
		ins := make([]mercury.Procable, 4)
		for k := range ins {
			ins[k] = &kvArgs{Key: "k", Value: []byte("v")}
		}
		var errs []error
		if err := call(t, cli, func(self *abt.ULT) error {
			errs = cli.ForwardMany(self, srv.Addr(), "trip_echo", ins, nil)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return errs
	}

	// Partitioned send fails the whole window and trips the breaker.
	c.fabric.SetFaultPlan(na.NewFaultPlan(1).PartitionOneWay(cli.Addr(), srv.Addr()))
	for k, err := range many() {
		if !errors.Is(err, na.ErrPartitioned) {
			t.Fatalf("member %d under partition: %v, want ErrPartitioned", k, err)
		}
	}
	if st := cli.BreakerState(srv.Addr(), "trip_echo"); st != "open" {
		t.Fatalf("breaker %s after failed batch, want open", st)
	}

	// Open circuit: the next window fast-fails without touching the wire.
	for k, err := range many() {
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("member %d on open circuit: %v, want ErrCircuitOpen", k, err)
		}
	}
	if ff := cli.OverloadStats().BreakerFastFails; ff == 0 {
		t.Fatal("open circuit did not record a fast-fail")
	}

	// Healed link + cooldown: the batched probe closes the circuit.
	c.fabric.SetFaultPlan(nil)
	time.Sleep(60 * time.Millisecond)
	for k, err := range many() {
		if err != nil {
			t.Fatalf("member %d after heal: %v", k, err)
		}
	}
	if st := cli.BreakerState(srv.Addr(), "trip_echo"); st != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}
	if !cli.WaitIdle(5 * time.Second) {
		t.Fatalf("InFlight stuck at %d", cli.InFlight())
	}
}

// TestBatchDeadlineExpiredMember: a deadline-stamped op whose deadline
// passes in transit is rejected by the target's admission check, while
// the healthy member of the same vectored frame succeeds — per-entry
// verdicts, not per-frame.
func TestBatchDeadlineExpiredMember(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
		Batch: &batch.Policy{MaxOps: 16, MaxDelay: 30 * time.Millisecond}})
	registerBatchEcho(t, srv, cli, "dl_echo")

	// Requests take 60ms on the wire; responses are unaffected.
	plan := na.NewFaultPlan(7)
	plan.SetLink(cli.Addr(), srv.Addr(), na.FaultRule{DelayProb: 1, Delay: 60 * time.Millisecond})
	c.fabric.SetFaultPlan(plan)

	var healthyErr, expiredErr error
	healthy := cli.Run("healthy", func(self *abt.ULT) {
		healthyErr = forwardOne(cli, self, srv.Addr(), "dl_echo",
			&kvArgs{Key: "h", Value: []byte("v")}, nil)
	})
	time.Sleep(5 * time.Millisecond) // the healthy op opens the window
	expired := cli.Run("expired", func(self *abt.ULT) {
		// 20ms of budget: alive at enqueue and flush, dead on arrival.
		// The ULT stands in for a handler servicing a deadline-stamped
		// request: batched forwards inherit the deadline from its slot.
		self.SetData(&Context{dlNanos: time.Now().Add(20 * time.Millisecond).UnixNano()})
		expiredErr = forwardOne(cli, self, srv.Addr(), "dl_echo",
			&kvArgs{Key: "e", Value: []byte("v")}, nil)
	})
	healthy.Join(nil)
	expired.Join(nil)

	if healthyErr != nil {
		t.Fatalf("healthy member: %v", healthyErr)
	}
	if !errors.Is(expiredErr, mercury.ErrDeadlineExpired) {
		t.Fatalf("expired member: %v, want ErrDeadlineExpired", expiredErr)
	}
	bs := cli.BatchStats()
	if bs.Flushes != 1 || bs.Ops != 2 {
		t.Fatalf("flushes=%d ops=%d, want both members in one frame", bs.Flushes, bs.Ops)
	}
	if bs.FlushReasons["urgent"] != 1 {
		t.Fatalf("deadline member did not pull the flush early: %+v", bs.FlushReasons)
	}
	if exp := srv.OverloadStats().Expired; exp != 1 {
		t.Fatalf("server Expired = %d, want 1", exp)
	}
}

// TestBatchFaultInjectedNoAckedThenLost: under a seeded lossy link with
// idempotent retries, an op that reports success must be applied at the
// target — a dropped frame or dropped reply may fail ops or re-execute
// them, but never acknowledge work that did not happen.
func TestBatchFaultInjectedNoAckedThenLost(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
		Retry: testRetry(RetryPolicy{MaxAttempts: 6, PerTryTimeout: 50 * time.Millisecond,
			InitialBackoff: 2 * time.Millisecond}),
		Batch: &batch.Policy{MaxOps: 16, MaxDelay: 2 * time.Millisecond}})

	store := map[string]bool{}
	var mu abt.Mutex
	if err := srv.Register("lossy_put", func(ctx *Context) {
		var in kvArgs
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		mu.Lock(ctx.Self)
		store[in.Key] = true
		mu.Unlock()
		ctx.Respond(mercury.Void{})
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterClientIdempotent("lossy_put"); err != nil {
		t.Fatal(err)
	}

	plan := na.NewFaultPlan(3)
	plan.SetLink(cli.Addr(), srv.Addr(), na.FaultRule{DropProb: 0.5})
	plan.SetLink(srv.Addr(), cli.Addr(), na.FaultRule{DropProb: 0.5})
	c.fabric.SetFaultPlan(plan)

	const rounds, perRound = 3, 16
	var ackedKeys []string
	for r := 0; r < rounds; r++ {
		ins := make([]mercury.Procable, perRound)
		keys := make([]string, perRound)
		for k := range ins {
			keys[k] = fmt.Sprintf("r%d-k%02d", r, k)
			ins[k] = &kvArgs{Key: keys[k], Value: []byte("v")}
		}
		var errs []error
		if err := call(t, cli, func(self *abt.ULT) error {
			errs = cli.ForwardMany(self, srv.Addr(), "lossy_put", ins, nil)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for k, err := range errs {
			if err == nil { // failed ops may or may not have executed
				ackedKeys = append(ackedKeys, keys[k])
			}
		}
	}
	if len(ackedKeys) == 0 {
		t.Fatal("every op failed: retries never carried a batch through the lossy link")
	}
	// The seeded plan is deterministic: drops must have forced at least
	// one batch retry, or the test is not exercising the loss path.
	if cli.BatchStats().Retries == 0 {
		t.Fatal("no batch retries recorded: fault plan never dropped a frame")
	}
	if !cli.WaitIdle(5 * time.Second) {
		t.Fatalf("InFlight stuck at %d", cli.InFlight())
	}
	// All client calls resolved and the fabric is quiet: no handler can
	// still be mutating the store, so it is safe to read directly.
	time.Sleep(20 * time.Millisecond)
	for _, key := range ackedKeys {
		if !store[key] {
			t.Fatalf("op %s acked but not applied: acked-then-lost", key)
		}
	}
	t.Logf("acked %d/%d ops, %d batch retries", len(ackedKeys), rounds*perRound, cli.BatchStats().Retries)
}

// originOutcome is what a caller can tell about a failed forward: which
// sentinels the error matches, the text that names the failed call, and
// what the failure added to the instance's resilience counters.
type originOutcome struct {
	is    []error // sentinels the error matches; it matches no other
	names string  // what the message must contain, srv's address for %s
	stats RetryStats
}

// TestOriginParity: one logical RPC fails the same way whether it goes
// out as a single Forward or as the only member of a coalescer window —
// the same error identities, the same message naming RPC, target and
// attempt count, the same counter deltas. The open circuit is the one
// row where the two differ by design: a parked ULT retries it after a
// backoff (and so exhausts its attempts), a window takes it as final.
func TestOriginParity(t *testing.T) {
	sentinels := []error{ErrDeadlineExceeded, ErrRetryBudgetExhausted, ErrCircuitOpen,
		mercury.ErrCanceled, mercury.ErrDeadlineExpired, mercury.ErrOverloaded, mercury.ErrHandlerFail,
		na.ErrClosed, na.ErrPartitioned, na.ErrUnreachable}
	partition := func(c *cluster, srv, cli *Instance) {
		c.fabric.SetFaultPlan(na.NewFaultPlan(1).PartitionOneWay(cli.Addr(), srv.Addr()))
	}
	cases := []struct {
		name    string
		retry   RetryPolicy
		arrange func(c *cluster, srv, cli *Instance)
		prime   int   // unmeasured calls issued first, through the same path
		dlNanos int64 // deadline the issuing ULT inherited, when non-zero
		single  originOutcome
		window  *originOutcome // nil: exactly what single gets
	}{
		{
			name:    "closed target, two attempts",
			retry:   RetryPolicy{MaxAttempts: 2, InitialBackoff: time.Millisecond},
			arrange: func(c *cluster, srv, cli *Instance) { srv.Shutdown() },
			single: originOutcome{is: []error{ErrDeadlineExceeded, na.ErrClosed},
				names: "parity_rpc to %s after 2 attempt(s)", stats: RetryStats{Retries: 1, Exhausted: 1}},
		},
		{
			name:    "retry budget of one token",
			retry:   RetryPolicy{MaxAttempts: 5, Budget: 1, InitialBackoff: time.Millisecond},
			arrange: partition,
			single: originOutcome{is: []error{ErrRetryBudgetExhausted, na.ErrPartitioned},
				names: "parity_rpc to %s after 2 attempt(s)", stats: RetryStats{Retries: 1, Exhausted: 1}},
		},
		{
			name:    "inherited deadline in the past",
			retry:   RetryPolicy{MaxAttempts: 2},
			dlNanos: time.Now().Add(-time.Second).UnixNano(),
			single: originOutcome{is: []error{ErrDeadlineExceeded, mercury.ErrDeadlineExpired},
				names: "parity_rpc to %s after 0 attempt(s)", stats: RetryStats{Exhausted: 1}},
		},
		{
			name:  "per-try timeout, RPC not idempotent",
			retry: RetryPolicy{MaxAttempts: 3, PerTryTimeout: 20 * time.Millisecond},
			single: originOutcome{is: []error{mercury.ErrCanceled},
				names: "canceled", stats: RetryStats{Timeouts: 1}},
		},
		{
			name: "open breaker",
			retry: RetryPolicy{MaxAttempts: 1,
				Breaker: &BreakerPolicy{Threshold: 1, Cooldown: time.Minute}},
			arrange: partition,
			prime:   1, // the call that trips the circuit
			single: originOutcome{is: []error{ErrDeadlineExceeded, ErrCircuitOpen},
				names: "parity_rpc to %s after 1 attempt(s)", stats: RetryStats{Exhausted: 1}},
			window: &originOutcome{is: []error{ErrCircuitOpen}, names: "parity_rpc to %s"},
		},
	}
	for _, tc := range cases {
		for _, path := range []string{"single", "window"} {
			t.Run(tc.name+"/"+path, func(t *testing.T) {
				c := newCluster(t)
				srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
				cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli",
					Retry: testRetry(tc.retry), Batch: &batch.Policy{MaxOps: 4, MaxDelay: time.Millisecond}})
				release := make(chan struct{})
				defer close(release)
				if err := srv.Register("parity_rpc", func(ctx *Context) {
					<-release // answers only once the case is over
					ctx.Respond(mercury.Void{})
				}); err != nil {
					t.Fatal(err)
				}
				if err := cli.RegisterClient("parity_rpc"); err != nil {
					t.Fatal(err)
				}
				if tc.arrange != nil {
					tc.arrange(c, srv, cli)
				}
				issue := func() error {
					return call(t, cli, func(self *abt.ULT) error {
						if tc.dlNanos != 0 {
							self.SetData(&Context{dlNanos: tc.dlNanos})
						}
						if path == "single" {
							return cli.Forward(self, srv.Addr(), "parity_rpc", &mercury.Void{}, nil)
						}
						return forwardOne(cli, self, srv.Addr(), "parity_rpc", &mercury.Void{}, nil)
					})
				}
				for k := 0; k < tc.prime; k++ {
					issue()
				}
				before := cli.RetryStats()
				err := issue()
				after := cli.RetryStats()

				want := tc.single
				if path == "window" && tc.window != nil {
					want = *tc.window
				}
				if err == nil {
					t.Fatal("the call succeeded")
				}
				for _, s := range sentinels {
					wantIs := slices.Contains(want.is, s)
					if errors.Is(err, s) != wantIs {
						t.Errorf("errors.Is(err, %q) = %v, want %v; err: %v", s, !wantIs, wantIs, err)
					}
				}
				if names := strings.ReplaceAll(want.names, "%s", srv.Addr()); !strings.Contains(err.Error(), names) {
					t.Errorf("err %q does not say %q", err, names)
				}
				delta := RetryStats{Retries: after.Retries - before.Retries, Timeouts: after.Timeouts - before.Timeouts,
					Exhausted: after.Exhausted - before.Exhausted}
				if delta != want.stats {
					t.Errorf("RetryStats moved by %+v, want %+v", delta, want.stats)
				}
				if !cli.WaitIdle(5 * time.Second) {
					t.Errorf("InFlight stuck at %d", cli.InFlight())
				}
			})
		}
	}
}

// rawKV is the bytes-only twin of kvArgs for the zero-alloc pin:
// string fields inherently allocate on encode ([]byte conversion), and
// the wire layout of String and Bytes is identical, so the server's
// kvArgs handler decodes it unchanged.
type rawKV struct {
	Key, Value []byte
}

func (a *rawKV) Proc(p *mercury.Proc) error {
	p.Bytes(&a.Key)
	p.Bytes(&a.Value)
	return p.Err()
}

// TestCoalescerEnqueueSteadyStateAllocs pins the coalesced-forward
// enqueue path at measurement-off stage to zero allocations once the
// pools are warm (ISSUE 6 satellite c). The flush/fan-out halves are
// covered as an amortized bound by the benchmark's sdskv_multi workload
// (allocs_per_op).
func TestCoalescerEnqueueSteadyStateAllocs(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageOff})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageOff,
		Batch: &batch.Policy{MaxOps: 1 << 20, MaxDelay: time.Hour}})
	registerBatchEcho(t, srv, cli, "alloc_echo")

	const runs = 200
	if err := call(t, cli, func(self *abt.ULT) error {
		co := cli.coalescerFor(srv.Addr(), "alloc_echo")
		in := &rawKV{Key: []byte("k"), Value: make([]byte, 64)}
		errs := make([]error, runs+1)

		// Warm the op pool, builder arena, and ops slice to full window
		// size, twice, so the measured round reuses everything.
		for round := 0; round < 2; round++ {
			g := new(opGroup)
			g.remaining.Store(runs + 1)
			for k := 0; k <= runs; k++ {
				if err := co.enqueue(self, in, nil, &errs[k], g); err != nil {
					return err
				}
			}
			cli.flushAll(batch.ReasonDrain)
			g.ev.Wait(self)
			for k, err := range errs {
				if err != nil {
					return fmt.Errorf("warm op %d: %w", k, err)
				}
			}
		}

		g := new(opGroup)
		g.remaining.Store(runs + 1)
		k := 0
		n := testing.AllocsPerRun(runs, func() {
			if err := co.enqueue(self, in, nil, &errs[k], g); err != nil {
				t.Errorf("enqueue: %v", err)
				g.done()
			}
			k++
		})
		cli.flushAll(batch.ReasonDrain)
		g.ev.Wait(self)
		if n != 0 {
			t.Errorf("coalescer enqueue allocates %v/op on the steady path, want 0", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
