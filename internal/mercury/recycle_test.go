package mercury

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symbiosys/internal/na"
)

// The tests in this file run recycled handles through the interleavings
// that could hand one request another's state: a completion event that
// arrives after its forward was canceled and destroyed, a cancellation
// sweep racing responses, a second Destroy, and a handler that never
// destroys at all. Every request carries a nonce the reply must echo.

type nonceArg struct{ N uint64 }

func (a *nonceArg) Proc(p *Proc) error { return p.Uint64(&a.N) }

// registerNonceEcho installs an RPC on server that answers N with N and,
// when destroy is set, destroys its handle right after responding, as a
// handler that owns its handle does. client may then forward it.
func registerNonceEcho(t *testing.T, client, server *Class, rpc string, destroy bool, seen func(*Handle)) {
	t.Helper()
	if err := server.Register(rpc, func(h *Handle) {
		if seen != nil {
			seen(h)
		}
		var in nonceArg
		if err := h.GetInput(&in); err != nil {
			t.Errorf("GetInput: %v", err)
		}
		if err := h.Respond(&in, Meta{}, nil); err != nil {
			t.Errorf("Respond: %v", err)
		}
		if destroy {
			h.Destroy()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Register(rpc, nil); err != nil {
		t.Fatal(err)
	}
}

func newEndpoint(t *testing.T, f *na.Fabric, node, name string) *na.Endpoint {
	t.Helper()
	ep, err := f.NewEndpoint(node, name)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// spin drives the given classes from the calling goroutine until done
// reports true.
func spin(t *testing.T, done func() bool, classes ...*Class) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !done() {
		moved := 0
		for _, c := range classes {
			moved += c.Progress(0) + c.Trigger(16)
		}
		if moved == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no progress for 10 s")
			}
			runtime.Gosched()
		}
	}
}

// TestLateSendErrorMeetsItsOwnRequest: a forward whose request is still
// in flight is canceled, completed and destroyed, and the destination
// closes before the request lands, so the send's EvError arrives long
// after the owner is gone. The next forward is posted in between. The
// error must find the handle of the request it is about (completed: a
// no-op), not the next request posted from the same memory — which it
// would fail with another destination's ErrClosed, or unpost so that the
// genuine response is dropped as stale.
func TestLateSendErrorMeetsItsOwnRequest(t *testing.T) {
	f := na.NewFabric(na.DefaultConfig())
	client := NewClass(newEndpoint(t, f, "node0", "client"), Config{})
	server := NewClass(newEndpoint(t, f, "node1", "server"), Config{})
	registerNonceEcho(t, client, server, "nonce", true, nil)

	const rounds = 100
	reused := 0
	for round := 0; round < rounds; round++ {
		// A destination one millisecond away, so its request is in
		// flight for as long.
		bad := newEndpoint(t, f, "node2", fmt.Sprintf("bad%d", round))
		f.SetFaultPlan(na.NewFaultPlan(1).SetLink(client.Addr(), bad.Addr(),
			na.FaultRule{DelayProb: 1, Delay: time.Millisecond}))

		var done1 int
		var err1 error
		h1, err := client.Create(bad.Addr(), "nonce")
		if err != nil {
			t.Fatal(err)
		}
		if err := h1.Forward(&nonceArg{N: 1}, Meta{}, func(_ *Handle, err error) { done1++; err1 = err }); err != nil {
			t.Fatal(err)
		}
		h1.Cancel()
		spin(t, func() bool { return done1 > 0 }, client)
		if !errors.Is(err1, ErrCanceled) {
			t.Fatalf("round %d: canceled forward completed with %v", round, err1)
		}
		h1.Destroy()
		bad.Close()

		nonce := uint64(round)<<8 | 2
		var done2 int
		var err2 error
		var out nonceArg
		h2, err := client.Create(server.Addr(), "nonce")
		if err != nil {
			t.Fatal(err)
		}
		if h2 == h1 {
			reused++
		}
		if err := h2.Forward(&nonceArg{N: nonce}, Meta{}, func(h *Handle, err error) {
			done2++
			if err2 = err; err == nil {
				err2 = h.GetOutput(&out)
			}
		}); err != nil {
			t.Fatal(err)
		}
		// The server stays undriven until the late error is in: the new
		// request is posted and unanswered when it arrives.
		errsBefore := client.sendErrors.Load()
		spin(t, func() bool { return client.sendErrors.Load() > errsBefore }, client)
		spin(t, func() bool { return done2 > 0 }, client, server)
		if err2 != nil || out.N != nonce {
			t.Fatalf("round %d: forward to the live server: err %v, reply %#x, want %#x", round, err2, out.N, nonce)
		}
		h2.Destroy()
		client.Trigger(16)
		if done1 != 1 || done2 != 1 {
			t.Fatalf("round %d: callbacks ran %d and %d times", round, done1, done2)
		}
	}
	if reused != 0 {
		t.Errorf("%d of %d canceled handles were handed out again while their send was in flight", reused, rounds)
	}
	if n := client.staleResponses.Load(); n != 0 {
		t.Errorf("%d responses were dropped as stale", n)
	}
}

// TestCancelSweepAndSecondDestroy: issuers destroy every handle twice
// while it is still posted (the owner is done; the response, which still
// arrives, completes the forward) and a sweeper cancels whatever is
// posted, so cancellations, responses and the last reference race on
// every handle. A reference of the issuer's own spans the two Destroys,
// which keeps the second one inside the handle's life. Each forward must
// complete exactly once, with its own nonce or ErrCanceled; a second
// Destroy taken for a reference would recycle a handle something still
// names, and show as a wrong nonce, a double completion or the
// reference-count panic.
func TestCancelSweepAndSecondDestroy(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerNonceEcho(t, p.client, p.server, "nonce", true, nil)

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
				swept.Add(int64(p.client.CancelPosted("")))
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const issuers, perIssuer = 4, 2000
	var successes, cancels atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < issuers; k++ {
		wg.Add(1)
		go func(issuer int) {
			defer wg.Done()
			type result struct {
				n   uint64
				err error
			}
			done := make(chan result, 2) // a second completion must not block the progress loop
			for k := 0; k < perIssuer; k++ {
				nonce := uint64(issuer)<<32 | uint64(k+1)
				h, err := p.client.Create(p.server.Addr(), "nonce")
				if err != nil {
					t.Error(err)
					return
				}
				if err := h.Forward(&nonceArg{N: nonce}, Meta{}, func(h *Handle, err error) {
					var out nonceArg
					if err == nil {
						err = h.GetOutput(&out)
					}
					done <- result{out.N, err}
				}); err != nil {
					t.Error(err)
					return
				}
				h.Ref()
				h.Destroy()
				h.Destroy()
				h.Unref()
				r := <-done
				switch {
				case r.err == nil && r.n == nonce:
					successes.Add(1)
				case errors.Is(r.err, ErrCanceled):
					cancels.Add(1)
				default:
					t.Errorf("issuer %d call %d: err %v, reply %#x (nonce %#x)", issuer, k, r.err, r.n, nonce)
					return
				}
				select {
				case r := <-done:
					t.Errorf("issuer %d call %d completed twice (second: %+v)", issuer, k, r)
					return
				default:
				}
			}
		}(k)
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
	if got := successes.Load() + cancels.Load(); got != issuers*perIssuer {
		t.Errorf("successes %d + cancels %d = %d, want %d", successes.Load(), cancels.Load(), got, issuers*perIssuer)
	}
	t.Logf("%d successes, %d canceled (%d handles swept)", successes.Load(), cancels.Load(), swept.Load())
}

// TestRecycledHandleStartsClean: a handle that comes back from the pool
// reads zero from all six handle-bound PVARs and nil from Data, on
// either side of the wire, before its new owner has done anything with
// it. The first life uses every timer: the request overflows the eager
// buffer, so the target fetches the rest by RDMA.
func TestRecycledHandleStartsClean(t *testing.T) {
	f := na.NewFabric(na.DefaultConfig())
	cfg := Config{EagerLimit: 64}
	client := NewClass(newEndpoint(t, f, "node0", "client"), cfg)
	server := NewClass(newEndpoint(t, f, "node1", "server"), cfg)
	var target *Handle
	if err := server.Register("blob", func(h *Handle) {
		target = h
		var in RawBytes
		if err := h.GetInput(&in); err != nil {
			t.Errorf("GetInput: %v", err)
		}
		h.SetData(&in)
		if err := h.Respond(&in, Meta{}, func(error) {}); err != nil {
			t.Errorf("Respond: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Register("blob", nil); err != nil {
		t.Fatal(err)
	}
	timers := []string{PVarInputSerTime, PVarInputDeserTime, PVarOutputSerTime,
		PVarOutputDeserTime, PVarInternalRDMATime, PVarOriginCBTime}
	sess := client.PVars().InitSession()
	defer sess.Finalize()
	read := func(name string, h *Handle) uint64 {
		t.Helper()
		ph, err := sess.AllocHandleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.FreeHandle(ph)
		v, err := sess.Read(ph, h)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	payload := RawBytes(make([]byte, 1024))
	recycled := 0
	// Under the race detector the pool drops Puts at random; a few
	// rounds always see a handle come back.
	for round := 0; round < 50 && recycled < 2; round++ {
		origin, err := client.Create(server.Addr(), "blob")
		if err != nil {
			t.Fatal(err)
		}
		origin.SetData(&payload)
		done := false
		if err := origin.Forward(&payload, Meta{HasTrace: true, Order: 7}, func(h *Handle, err error) {
			var out RawBytes
			if err == nil {
				err = h.GetOutput(&out)
			}
			if err != nil || len(out) != len(payload) {
				t.Errorf("forward: %v (%d bytes back)", err, len(out))
			}
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		spin(t, func() bool { return done }, client, server)
		used := 0
		for _, name := range timers {
			if read(name, origin) > 0 || read(name, target) > 0 {
				used++
			}
		}
		if used != len(timers) {
			t.Fatalf("the first life left only %d of %d timers nonzero", used, len(timers))
		}
		old := [2]*Handle{origin, target}
		origin.Destroy()
		target.Destroy()
		// Drain what still names them: the response's send completion and
		// its t13 callback on the server.
		for k := 0; k < 100; k++ {
			if client.Progress(0)+client.Trigger(16)+server.Progress(0)+server.Trigger(16) == 0 {
				runtime.Gosched()
			}
		}

		var held []*Handle
		for k := 0; k < 4; k++ {
			h, err := client.Create(server.Addr(), "blob")
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, h)
			if h != old[0] && h != old[1] {
				continue
			}
			recycled++
			for _, name := range timers {
				if v := read(name, h); v != 0 {
					t.Errorf("recycled handle reads %d ns from %s", v, name)
				}
			}
			if h.Data() != nil {
				t.Errorf("recycled handle still carries the last owner's Data (%T)", h.Data())
			}
			if h.BatchLen() != 0 || h.InputSize() != 0 || h.RespMeta() != (Meta{}) || h.Meta() != (Meta{}) || h.Peer() != "" {
				t.Errorf("recycled handle kept state of its last life: %d batch entries, %d input bytes, resp meta %+v, meta %+v, peer %q",
					h.BatchLen(), h.InputSize(), h.RespMeta(), h.Meta(), h.Peer())
			}
		}
		for _, h := range held {
			h.Destroy()
		}
	}
	if recycled == 0 {
		t.Fatal("no destroyed handle ever came back from the pool")
	}
}

// TestHandlerThatNeverDestroysKeepsWorking: a raw Mercury handler that
// responds and forgets its handle (the shape of the benchmark's echo
// probe) keeps garbage-collector semantics: every request is served, and
// no target handle is handed out again while something could still hold
// it — here the test holds them all, so none may ever repeat.
func TestHandlerThatNeverDestroysKeepsWorking(t *testing.T) {
	p := newRPCPair(t, Config{})
	var mu sync.Mutex
	targets := make(map[*Handle]int)
	registerNonceEcho(t, p.client, p.server, "nonce", false, func(h *Handle) {
		mu.Lock()
		targets[h]++
		mu.Unlock()
	})
	const calls = 3000
	for k := 1; k <= calls; k++ {
		h, err := p.client.Create(p.server.Addr(), "nonce")
		if err != nil {
			t.Fatal(err)
		}
		in := nonceArg{N: uint64(k)}
		var out nonceArg
		if err := forwardWait(t, h, &in, Meta{}); err != nil {
			t.Fatalf("call %d: %v", k, err)
		}
		if err := h.GetOutput(&out); err != nil || out.N != uint64(k) {
			t.Fatalf("call %d: reply %#x, err %v", k, out.N, err)
		}
		h.Destroy()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(targets) != calls {
		t.Errorf("%d requests were served by %d distinct handles: an undestroyed handle was recycled", calls, len(targets))
	}
}

// TestBatchSubHandlesAreRecycled pins the per-entry cost of a vectored
// request on the target: once the pool is warm an entry costs what its
// handler and its reply slot allocate (the decoded argument and the
// encoded output here), and no handle.
func TestBatchSubHandlesAreRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled records are dropped at random under the race detector")
	}
	f := na.NewFabric(na.DefaultConfig())
	client := NewClass(newEndpoint(t, f, "node0", "client"), Config{})
	server := NewClass(newEndpoint(t, f, "node1", "server"), Config{})
	registerNonceEcho(t, client, server, "nonce", true, nil)

	roundTrip := func(entries int) func() {
		bb := AcquireBatch()
		t.Cleanup(bb.Release)
		for k := 0; k < entries; k++ {
			if err := bb.Add(&nonceArg{N: uint64(k)}, Meta{}); err != nil {
				t.Fatal(err)
			}
		}
		done := false
		cb := func(h *Handle, err error) {
			if err != nil || h.BatchLen() != entries {
				t.Errorf("batch of %d: err %v, %d entries back", entries, err, h.BatchLen())
			}
			done = true
		}
		return func() {
			h, err := client.Create(server.Addr(), "nonce")
			if err != nil {
				t.Fatal(err)
			}
			done = false
			if err := h.ForwardBatch(1, bb, cb); err != nil {
				t.Fatal(err)
			}
			spin(t, func() bool { return done }, client, server)
			h.Destroy()
		}
	}
	small, large := roundTrip(8), roundTrip(72)
	for k := 0; k < 16; k++ {
		small()
		large()
	}
	perEntry := (testing.AllocsPerRun(200, large) - testing.AllocsPerRun(200, small)) / 64
	if perEntry > 2.1 {
		t.Errorf("a batch entry costs %.2f allocations on top of the frame, want <= 2 (argument, output)", perEntry)
	}
}
