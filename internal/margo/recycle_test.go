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
)

// The tests in this file run the recycled per-request records (the
// origin call record, the target Context, the handler ULT's data slot)
// through the interleavings that could hand one request another's
// state. Every request carries a nonce the reply must echo.

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
// every call. A call record recycled while its timer could still fire
// would let a late timeout cancel a later request, and a record reused
// while its callback was still running would leak one request's result
// into another; either shows as a wrong nonce or a lost call.
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
			err := cli.ForwardTimeout(self, srv.Addr(), "nonce", &in, &out, timeout)
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

// TestCancelPostedRacingCompletions sweeps the posted handles from a
// plain goroutine while issuers complete forwards as fast as they can:
// a cancellation and a response race for the same handle, and the call
// record is recycled right behind whichever wins.
func TestCancelPostedRacingCompletions(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	registerNonceEcho(t, srv, cli, "nonce")

	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	var swept atomic.Int64
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				swept.Add(int64(cli.Mercury().CancelPosted("")))
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	const issuers, perIssuer = 4, 3000
	var successes, cancels atomic.Int64
	runIssuers(t, cli, issuers, func(self *abt.ULT, issuer int) {
		for k := 0; k < perIssuer; k++ {
			nonce := uint64(issuer)<<32 | uint64(k+1)
			in, out := seqArgs{N: nonce}, seqArgs{}
			err := cli.Forward(self, srv.Addr(), "nonce", &in, &out)
			switch {
			case err == nil && out.N == nonce:
				successes.Add(1)
			case errors.Is(err, mercury.ErrCanceled):
				cancels.Add(1)
			default:
				t.Errorf("issuer %d call %d: err %v, reply %#x (nonce %#x)", issuer, k, err, out.N, nonce)
				return
			}
		}
	})
	close(stop)
	sweeper.Wait()
	if got := successes.Load() + cancels.Load(); got != issuers*perIssuer {
		t.Errorf("successes %d + cancels %d = %d, want %d", successes.Load(), cancels.Load(), got, issuers*perIssuer)
	}
	t.Logf("%d successes, %d canceled (%d handles swept)", successes.Load(), cancels.Load(), swept.Load())
	if cli.InFlight() != 0 {
		t.Errorf("InFlight = %d after the last call returned", cli.InFlight())
	}
}

// TestNestedForwardInheritsIdentityAtDepth3: a request stamped with a
// deadline and a priority at the root crosses three handlers; each hop
// must see the breadcrumb extended by its own RPC, the root's request
// ID, and the root's deadline and priority — read off the servicing
// handler's Context, with nothing re-stamped on the way.
func TestNestedForwardInheritsIdentityAtDepth3(t *testing.T) {
	c := newCluster(t)
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	hops := []string{"front_rpc", "mid_rpc", "leaf_rpc"}
	srvs := make([]*Instance, len(hops))
	for k := range hops {
		srvs[k] = c.add(t, Options{Mode: ModeServer, Node: "n1", Name: hops[k], Stage: core.StageFull})
	}
	type seen struct {
		bc    core.Breadcrumb
		reqID uint64
		dl    time.Time
		prio  uint8
	}
	got := make([]seen, len(hops))
	for k := range hops {
		k := k
		srvs[k].Register(hops[k], func(ctx *Context) {
			got[k] = seen{ctx.Breadcrumb(), ctx.RequestID(), ctx.Deadline(), ctx.Priority()}
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
		return cli.ForwardEx(self, srvs[0].Addr(), hops[0], mercury.Void{}, nil,
			ForwardOpts{Deadline: deadline, Priority: 7})
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
		want := seen{bc, rootID, time.Unix(0, deadline.UnixNano()), 7}
		if got[k] != want {
			t.Errorf("hop %d (%s) saw %+v, want %+v", k+1, rpc, got[k], want)
		}
	}
}
