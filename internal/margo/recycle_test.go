package margo

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// The tests in this file run the recycled per-request records (the
// origin call record, the Mercury handles of both sides, the target
// Context, the handler ULT's data slot) through the interleavings that
// could hand one request another's state. Every request carries a nonce
// the reply must echo.

// readPVar samples one library-global Mercury PVAR of inst.
func readPVar(t *testing.T, inst *Instance, name string) uint64 {
	t.Helper()
	sess := inst.Mercury().PVars().InitSession()
	defer sess.Finalize()
	h, err := sess.AllocHandleByName(name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sess.Read(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// registerNonceEcho installs an RPC that answers N with N.
func registerNonceEcho(t *testing.T, srv, cli *Instance, rpc string) {
	t.Helper()
	if err := srv.Register(rpc, func(ctx *Context) {
		var in seqArgs
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

// runIssuers runs fn on n concurrent client ULTs and joins them.
func runIssuers(t *testing.T, cli *Instance, n int, fn func(self *abt.ULT, issuer int)) {
	t.Helper()
	ults := make([]*abt.ULT, n)
	for k := range ults {
		k := k
		ults[k] = cli.Run("issuer", func(self *abt.ULT) { fn(self, k) })
	}
	for _, u := range ults {
		if err := u.Join(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTimeoutRacingResponseKeepsCallsApart: with the per-try timeout
// set to about one round trip, timers and responses race on nearly
// every call. A call record or a handle recycled while its timer could
// still fire would let a late timeout cancel a later request (which
// then reads as an external cancellation, or as a timeout the caller
// never asked for), and a record reused while its callback was still
// running would leak one request's result into another; either shows as
// a wrong nonce, a lost call or a count that does not add up.
func TestTimeoutRacingResponseKeepsCallsApart(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	registerNonceEcho(t, srv, cli, "nonce")

	// The timeout is the median round trip measured here, so about half
	// of the calls below lose the race to their timer.
	rtts := make([]time.Duration, 201)
	if err := call(t, cli, func(self *abt.ULT) error {
		for k := range rtts {
			arg := seqArgs{N: uint64(k)}
			start := time.Now()
			if err := cli.Forward(self, srv.Addr(), "nonce", &arg, &arg); err != nil {
				return err
			}
			rtts[k] = time.Since(start)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(rtts, func(a, b int) bool { return rtts[a] < rtts[b] })
	timeout := rtts[len(rtts)/2]

	const issuers, perIssuer = 4, 5000
	var successes, timeouts atomic.Int64
	runIssuers(t, cli, issuers, func(self *abt.ULT, issuer int) {
		for k := 0; k < perIssuer; k++ {
			nonce := uint64(issuer)<<32 | uint64(k+1)
			in, out := seqArgs{N: nonce}, seqArgs{}
			err := cli.Forward(self, srv.Addr(), "nonce", &in, &out, ForwardOpts{Timeout: timeout})
			switch {
			case err == nil && out.N == nonce:
				successes.Add(1)
			case err == nil:
				t.Errorf("issuer %d call %d: reply nonce %#x, want %#x", issuer, k, out.N, nonce)
				return
			case errors.Is(err, mercury.ErrCanceled):
				timeouts.Add(1)
			default:
				t.Errorf("issuer %d call %d: %v", issuer, k, err)
				return
			}
		}
	})
	if got := successes.Load() + timeouts.Load(); got != issuers*perIssuer {
		t.Errorf("successes %d + timeouts %d = %d, want %d", successes.Load(), timeouts.Load(), got, issuers*perIssuer)
	}
	if n := cli.RetryStats().Timeouts; n != uint64(timeouts.Load()) {
		t.Errorf("instance counted %d timeouts, callers saw %d", n, timeouts.Load())
	}
	t.Logf("timeout %v: %d successes, %d timeouts", timeout, successes.Load(), timeouts.Load())
	if !cli.WaitIdle(5 * time.Second) {
		t.Errorf("InFlight = %d after the last call returned", cli.InFlight())
	}
	// Every request was served once, and every response found either
	// the handle of its own forward or, that forward having timed out,
	// nothing: responses dropped as stale plus responses that completed
	// a call account for every forward, with the calls whose response
	// was matched but lost the race to the timer in between.
	forwards := uint64(len(rtts) + issuers*perIssuer)
	waitFor(t, func() bool {
		return srv.HandlersInFlight() == 0 && readPVar(t, srv, mercury.PVarNumResponsesSent) == forwards &&
			cli.Mercury().NetworkPending() == 0 && readPVar(t, cli, mercury.PVarCompletionQueueSize) == 0
	})
	if n := readPVar(t, srv, mercury.PVarNumRPCsHandled); n != forwards {
		t.Errorf("server handled %d requests for %d forwards", n, forwards)
	}
	stale := readPVar(t, cli, mercury.PVarNumStaleResponses)
	completed := uint64(len(rtts)) + uint64(successes.Load())
	if stale > uint64(timeouts.Load()) || stale+completed > forwards {
		t.Errorf("%d stale responses + %d completed calls for %d forwards, %d of them timed out",
			stale, completed, forwards, timeouts.Load())
	}
	if n := readPVar(t, cli, mercury.PVarNumPostedHandles); n != 0 {
		t.Errorf("%d handles still posted", n)
	}
}

// TestMisbehavingHandlersOnRecycledContexts interleaves well-behaved
// requests with handlers that panic, return without responding, and
// respond twice, so their Contexts and handler ULTs are recycled into
// each other. Each origin must still get the verdict of its own
// handler, and a second Respond must be refused rather than answer
// whichever request the record serves next.
func TestMisbehavingHandlersOnRecycledContexts(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	registerNonceEcho(t, srv, cli, "good")
	srv.Register("panics", func(ctx *Context) { panic("handler exploded") })
	srv.Register("forgets", func(ctx *Context) {})
	var secondAccepted atomic.Int64
	srv.Register("twice", func(ctx *Context) {
		var in seqArgs
		ctx.GetInput(&in)
		ctx.Respond(&in)
		in.N = ^in.N
		if err := ctx.Respond(&in); err == nil {
			secondAccepted.Add(1)
		}
	})
	cli.RegisterClient("panics", "forgets", "twice")

	const issuers, rounds = 4, 500
	runIssuers(t, cli, issuers, func(self *abt.ULT, issuer int) {
		for k := 0; k < rounds; k++ {
			nonce := uint64(issuer)<<32 | uint64(k+1)
			for _, rpc := range []string{"good", "panics", "twice", "forgets"} {
				in, out := seqArgs{N: nonce}, seqArgs{}
				err := cli.Forward(self, srv.Addr(), rpc, &in, &out)
				var bad bool
				switch rpc {
				case "good", "twice":
					bad = err != nil || out.N != nonce
				case "panics":
					bad = !errors.Is(err, mercury.ErrHandlerFail) || !strings.Contains(err.Error(), "panicked")
				case "forgets":
					bad = !errors.Is(err, mercury.ErrHandlerFail) || !strings.Contains(err.Error(), "without responding")
				}
				if bad {
					t.Errorf("issuer %d round %d %s: err %v, reply %#x (nonce %#x)", issuer, k, rpc, err, out.N, nonce)
					return
				}
			}
		}
	})
	if n := secondAccepted.Load(); n != 0 {
		t.Errorf("%d second responses were accepted", n)
	}
	// Every request closed its target span exactly once, failed or not.
	waitFor(t, func() bool { return srv.HandlersInFlight() == 0 })
	var starts, ends, failed int
	for _, ev := range srv.Profiler().TraceEvents() {
		switch ev.Kind {
		case core.EvTargetStart:
			starts++
		case core.EvTargetEnd:
			ends++
			if ev.Failed {
				failed++
			}
		}
	}
	if want := issuers * rounds * 4; starts != want || ends != want || failed != want/2 {
		t.Errorf("target spans: %d starts, %d ends, %d failed; want %d, %d, %d", starts, ends, failed, want, want, want/2)
	}
}

// TestFaultyFabricNeverCrossesRequests recycles handles under a fault
// plan that duplicates, drops and delays messages, toward one server
// that stays up and a series of doomed ones: each is partitioned away,
// healed, sent a burst of slow requests and closed while they are in
// flight, so their sends fail with an EvError long after the forward
// timed out and its handle was destroyed. Forwards to the live server
// run beside them from the same handle pool. None of those may be
// completed by another request's event: they end with their own nonce
// or by their own timer, never with a doomed server's error, a stranger's
// nonce or a cancellation nobody issued; and every forward, doomed or
// not, completes exactly once.
func TestFaultyFabricNeverCrossesRequests(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	registerNonceEcho(t, srv, cli, "nonce")

	const rounds, burst = 30, 8
	const doomedDelay = 2 * time.Millisecond
	plan := func(doomed string, partitioned bool) *na.FaultPlan {
		p := na.NewFaultPlan(7)
		p.Default = na.FaultRule{DupProb: 0.05, DropProb: 0.02, DelayProb: 0.05, Delay: 300 * time.Microsecond}
		if doomed != "" {
			p.SetLink(cli.Addr(), doomed, na.FaultRule{DelayProb: 1, Delay: doomedDelay, Partition: partitioned})
		}
		return p
	}
	c.fabric.SetFaultPlan(plan("", false))

	stop := make(chan struct{})
	var live sync.WaitGroup
	var liveOK, liveTimeouts atomic.Int64
	for k := 0; k < 3; k++ {
		live.Add(1)
		issuer := k
		u := cli.Run("live", func(self *abt.ULT) {
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				nonce := uint64(issuer+1)<<40 | n
				in, out := seqArgs{N: nonce}, seqArgs{}
				err := cli.Forward(self, srv.Addr(), "nonce", &in, &out, ForwardOpts{Timeout: 5 * time.Millisecond})
				switch {
				case err == nil && out.N == nonce:
					liveOK.Add(1)
				case errors.Is(err, mercury.ErrCanceled):
					liveTimeouts.Add(1) // a dropped request or response
				default:
					t.Errorf("live issuer %d call %d: err %v, reply %#x (nonce %#x)", issuer, n, err, out.N, nonce)
					return
				}
			}
		})
		go func() { defer live.Done(); u.Join(nil) }()
	}

	var doomedTimeouts, doomedRefused atomic.Int64
	for round := 0; round < rounds; round++ {
		ep, err := c.fabric.NewEndpoint("n2", "doomed"+string(rune('A'+round)))
		if err != nil {
			t.Fatal(err)
		}
		// Partitioned: refused at once. Healed: slow, and closed mid-flight.
		c.fabric.SetFaultPlan(plan(ep.Addr(), true))
		runIssuers(t, cli, 2, func(self *abt.ULT, issuer int) {
			// Refused in Send itself; the timeout only bounds a bug.
			err := cli.Forward(self, ep.Addr(), "nonce", &seqArgs{N: 1}, nil, ForwardOpts{Timeout: 5 * time.Second})
			if !errors.Is(err, na.ErrPartitioned) {
				t.Errorf("round %d: forward across a partition: %v", round, err)
			}
			doomedRefused.Add(1)
		})
		c.fabric.SetFaultPlan(plan(ep.Addr(), false))
		closed := make(chan struct{})
		go func() {
			time.Sleep(doomedDelay / 2)
			ep.Close()
			close(closed)
		}()
		runIssuers(t, cli, burst, func(self *abt.ULT, issuer int) {
			// The timeout beats the slow link, so the handle is destroyed
			// while its request is still on its way to a closing endpoint.
			err := cli.Forward(self, ep.Addr(), "nonce", &seqArgs{N: 2}, nil, ForwardOpts{Timeout: doomedDelay / 8})
			switch {
			case errors.Is(err, mercury.ErrCanceled):
				doomedTimeouts.Add(1)
			case errors.Is(err, na.ErrClosed):
				// Issued after the close: refused at once.
			default:
				t.Errorf("round %d: forward to the doomed server: %v", round, err)
			}
		})
		<-closed
		// Let the late errors land among the live forwards.
		time.Sleep(doomedDelay)
	}
	close(stop)
	live.Wait()
	c.fabric.SetFaultPlan(nil)

	if liveOK.Load() == 0 {
		t.Error("no forward to the live server succeeded")
	}
	st := cli.RetryStats()
	if want := uint64(liveTimeouts.Load() + doomedTimeouts.Load()); st.Timeouts != want {
		t.Errorf("instance counted %d timeouts; callers saw %d", st.Timeouts, want)
	}
	if n := readPVar(t, cli, mercury.PVarNumSendErrors); n <= uint64(doomedRefused.Load()) {
		t.Errorf("%d send errors for %d refused forwards: no request was in flight when its server closed", n, doomedRefused.Load())
	}
	waitFor(t, func() bool { return readPVar(t, cli, mercury.PVarNumPostedHandles) == 0 })
	if !cli.WaitIdle(5 * time.Second) {
		t.Errorf("InFlight = %d after the last call returned", cli.InFlight())
	}
	t.Logf("live: %d ok, %d timed out; doomed: %d refused, %d timed out; faults %+v",
		liveOK.Load(), liveTimeouts.Load(), doomedRefused.Load(), doomedTimeouts.Load(), c.fabric.FaultStats())
}

// TestNestedForwardInheritsIdentityAtDepth3: a request stamped with a
// deadline at the root crosses three handlers; each hop must see the
// root's deadline, read off the servicing handler's Context, and trace
// its span under the breadcrumb extended by its own RPC and the root's
// request ID, with nothing re-stamped on the way.
func TestNestedForwardInheritsIdentityAtDepth3(t *testing.T) {
	c := newCluster(t)
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	hops := []string{"front_rpc", "mid_rpc", "leaf_rpc"}
	srvs := make([]*Instance, len(hops))
	for k := range hops {
		srvs[k] = c.add(t, Options{Mode: ModeServer, Node: "n1", Name: hops[k], Stage: core.StageFull})
	}
	deadlines := make([]time.Time, len(hops))
	for k := range hops {
		k := k
		srvs[k].Register(hops[k], func(ctx *Context) {
			deadlines[k] = ctx.Deadline()
			if k+1 < len(hops) {
				if err := ctx.Forward(srvs[k+1].Addr(), hops[k+1], mercury.Void{}, nil); err != nil {
					ctx.RespondError("%s: %v", hops[k+1], err)
					return
				}
			}
			ctx.Respond(mercury.Void{})
		})
		if k > 0 {
			srvs[k-1].RegisterClient(hops[k])
		}
	}
	cli.RegisterClient(hops[0])

	deadline := time.Now().Add(time.Minute)
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srvs[0].Addr(), hops[0], mercury.Void{}, nil, ForwardOpts{Deadline: deadline})
	}); err != nil {
		t.Fatal(err)
	}
	var rootID uint64
	for _, ev := range cli.Profiler().TraceEvents() {
		if ev.Kind == core.EvOriginStart {
			rootID = ev.RequestID
		}
	}
	if rootID == 0 {
		t.Fatal("root forward carries no request ID")
	}
	var bc core.Breadcrumb
	for k, rpc := range hops {
		bc = bc.Push(rpc)
		if want := time.Unix(0, deadline.UnixNano()); !deadlines[k].Equal(want) {
			t.Errorf("hop %d (%s) saw deadline %v, want %v", k+1, rpc, deadlines[k], want)
		}
		starts := 0
		for _, ev := range srvs[k].Profiler().TraceEvents() {
			if ev.Kind != core.EvTargetStart {
				continue
			}
			starts++
			if ev.RequestID != rootID || core.Breadcrumb(ev.Breadcrumb) != bc {
				t.Errorf("hop %d (%s) traced request %d breadcrumb %v, want %d and %v", k+1, rpc, ev.RequestID, core.Breadcrumb(ev.Breadcrumb), rootID, bc)
			}
		}
		if starts != 1 {
			t.Errorf("hop %d (%s) traced %d target starts, want 1", k+1, rpc, starts)
		}
	}
}
