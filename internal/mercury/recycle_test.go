package mercury

import (
	"errors"
	"fmt"
	"math/rand/v2"
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
// racing the response, a second Destroy, and a handler that never
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
		// A destination five milliseconds away, so its request is still
		// in flight when the destination closes below, on a loaded host
		// too.
		bad := newEndpoint(t, f, "node2", fmt.Sprintf("bad%d", round))
		f.SetFaultPlan(na.NewFaultPlan(1).SetLink(client.Addr(), bad.Addr(),
			na.FaultRule{DelayProb: 1, Delay: 5 * time.Millisecond}))

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
// arrives, completes the forward) and a canceler goroutine, holding a
// reference of its own, cancels each handle after a short random delay,
// so the cancellation, the response and the last reference race on
// every handle. A reference of the issuer's own spans the two Destroys,
// which keeps the second one inside the handle's life. Each forward must
// complete exactly once, with its own nonce or ErrCanceled; a second
// Destroy taken for a reference would recycle a handle something still
// names, and show as a wrong nonce, a double completion or the
// reference-count panic.
func TestCancelSweepAndSecondDestroy(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerNonceEcho(t, p.client, p.server, "nonce", true, nil)

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
			canceled := make(chan struct{})
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
				go func(spins int) {
					for ; spins > 0; spins-- {
						runtime.Gosched()
					}
					h.Cancel()
					h.Unref()
					canceled <- struct{}{}
				}(rand.IntN(64))
				h.Ref()
				h.Destroy()
				h.Destroy()
				h.Unref()
				r := <-done
				<-canceled
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
	if got := successes.Load() + cancels.Load(); got != issuers*perIssuer {
		t.Errorf("successes %d + cancels %d = %d, want %d", successes.Load(), cancels.Load(), got, issuers*perIssuer)
	}
	t.Logf("%d successes, %d canceled", successes.Load(), cancels.Load())
}

// TestRecycledHandleStartsClean: a handle that comes back from the pool
// reads zero from all six handle-bound PVARs and nil from Data, on
// either side of the wire, before its new owner has done anything with
// it. The first life uses every timer: the request overflows the eager
// buffer, so the target fetches the rest by RDMA.
func TestRecycledHandleStartsClean(t *testing.T) {
	f := na.NewFabric(na.DefaultConfig())
	client := NewClass(newEndpoint(t, f, "node0", "client"), Config{})
	server := NewClass(newEndpoint(t, f, "node1", "server"), Config{})
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
		v, err := sess.Read(ph, h)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	payload := RawBytes(make([]byte, 2*eagerLimit))
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
			if h.BatchLen() != 0 || len(h.reqPayload) != 0 || h.RespMeta() != (Meta{}) || h.Meta() != (Meta{}) || h.Peer() != "" {
				t.Errorf("recycled handle kept state of its last life: %d batch entries, %d input bytes, resp meta %+v, meta %+v, peer %q",
					h.BatchLen(), len(h.reqPayload), h.RespMeta(), h.Meta(), h.Peer())
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
// request on the target: once the pools are warm an entry costs what its
// handler allocates (the decoded argument here), and neither a handle
// nor a buffer for its share of the reply.
func TestBatchSubHandlesAreRecycled(t *testing.T) {
	if RaceEnabled {
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
	if perEntry > 1.1 {
		t.Errorf("a batch entry costs %.2f allocations, want <= 1 (the handler's argument)", perEntry)
	}
}

// The tests below run recycled frames through the interleavings that
// could leave a decoded view pointing at bytes someone else now owns.
// Every payload is a function of its nonce, checked byte for byte; under
// the race detector a recycled frame is overwritten with 0xDB first, so
// a view that outlived its rule cannot pass by luck.

type blobArg struct {
	N    uint64
	Data []byte
}

func (a *blobArg) Proc(p *Proc) error {
	p.Uint64(&a.N)
	p.Bytes(&a.Data)
	return p.Err()
}

// blobOf is the payload every message with this nonce carries: 40 to 420
// bytes, so frames of the two smallest classes both circulate.
func blobOf(n uint64) []byte {
	b := make([]byte, 40+int(n%20)*20)
	for k := range b {
		b[k] = byte(n*131 + uint64(k)*7)
	}
	return b
}

func (a *blobArg) intact() bool { return string(a.Data) == string(blobOf(a.N)) }

// blobReply is blobArg as a caller that keeps the bytes decodes it: its
// Proc copies Data out of the response frame, which is recycled at the
// handle's last Unref — the rule for every reply type whose bytes
// outlive the handle.
type blobReply struct{ blobArg }

func (a *blobReply) Proc(p *Proc) error {
	if err := a.blobArg.Proc(p); err != nil {
		return err
	}
	if p.Op() == OpDecode {
		a.Data = append([]byte(nil), a.Data...)
	}
	return nil
}

// registerBlobEcho installs an RPC that checks its input against the
// nonce and echoes it; the handler destroys its handle after responding.
func registerBlobEcho(t *testing.T, client, server *Class, rpc string) {
	t.Helper()
	if err := server.Register(rpc, func(h *Handle) {
		var in blobArg
		if err := h.GetInput(&in); err != nil || !in.intact() {
			t.Errorf("request %d: input is not what its origin sent (%v)", in.N, err)
		}
		if err := h.Respond(&in, Meta{}, nil); err != nil {
			t.Errorf("Respond: %v", err)
		}
		h.Destroy()
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Register(rpc, nil); err != nil {
		t.Fatal(err)
	}
}

// keeper collects the outputs of completed forwards, decoded as copies,
// to be checked once all the traffic that could have recycled their
// frames — and, had a reply kept a view, poisoned it — is over.
type keeper struct {
	mu   sync.Mutex
	kept []*blobReply
}

func (k *keeper) keep(t *testing.T, h *Handle) {
	out := new(blobReply)
	if err := h.GetOutput(out); err != nil || !out.intact() {
		t.Errorf("response %d: output is not what was sent (%v)", out.N, err)
	}
	k.mu.Lock()
	k.kept = append(k.kept, out)
	k.mu.Unlock()
}

func (k *keeper) check(t *testing.T, atLeast int) {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.kept) < atLeast {
		t.Errorf("%d outputs kept, want at least %d", len(k.kept), atLeast)
	}
	for _, out := range k.kept {
		if !out.intact() {
			t.Fatalf("output %d changed after its handle was destroyed: a kept reply shares memory with a recycled frame", out.N)
		}
	}
}

// TestResponseRacedByItsTimeout: every forward arms a timer that is
// steered towards the moment the response lands (later after a timeout,
// earlier after a response), so cancel and response race on every
// request and both orders keep occurring. A response that wins is
// decoded and kept; one that loses is stale and recycled on arrival.
// Whatever the order, every kept output must still read as sent at the
// end.
func TestResponseRacedByItsTimeout(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerBlobEcho(t, p.client, p.server, "blob")

	const calls = 3000
	var k keeper
	var won, lost atomic.Int64
	var wg sync.WaitGroup
	var timeout atomic.Int64 // nanoseconds
	timeout.Store(int64(100 * time.Microsecond))
	for n := uint64(1); n <= calls; n++ {
		h, err := p.client.Create(p.server.Addr(), "blob")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		h.Ref() // the timer's, taken while the owner's is still held
		if err := h.Forward(&blobArg{N: n, Data: blobOf(n)}, Meta{}, func(h *Handle, err error) {
			defer wg.Done()
			switch {
			case err == nil:
				won.Add(1)
				timeout.Store(timeout.Load() * 15 / 16)
				k.keep(t, h)
			case errors.Is(err, ErrCanceled):
				lost.Add(1)
				timeout.Store(timeout.Load()*17/16 + 1)
			default:
				t.Errorf("forward %d: %v", n, err)
			}
			h.Destroy()
		}); err != nil {
			t.Fatal(err)
		}
		time.AfterFunc(time.Duration(timeout.Load()), func() {
			h.Cancel()
			h.Unref()
		})
		if n%8 == 0 {
			wg.Wait() // bound what is in flight
		}
	}
	wg.Wait()
	t.Logf("%d responses won their race, %d lost it", won.Load(), lost.Load())
	if won.Load()+lost.Load() != calls {
		t.Fatalf("%d forwards completed, want %d", won.Load()+lost.Load(), calls)
	}
	if won.Load() < calls/10 || lost.Load() < calls/10 {
		t.Errorf("the race was one-sided: %d responses won, %d lost", won.Load(), lost.Load())
	}
	k.check(t, calls/10)
}

// TestDuplicateAndDelayedDelivery: the fault plane delivers every
// message twice, some of them late. Each request runs two handlers, on
// the original frame and on the duplicate's private copy; the second
// response to arrive finds no posted handle and is recycled at once,
// while the first one's views are still held.
func TestDuplicateAndDelayedDelivery(t *testing.T) {
	f := na.NewFabric(na.DefaultConfig())
	client := NewClass(newEndpoint(t, f, "node0", "client"), Config{})
	server := NewClass(newEndpoint(t, f, "node1", "server"), Config{})
	cpl, spl := drive(client), drive(server)
	t.Cleanup(func() { cpl.Stop(); spl.Stop() })
	registerBlobEcho(t, client, server, "blob")
	f.SetFaultPlan(&na.FaultPlan{Seed: 11, Default: na.FaultRule{
		DupProb: 1, DelayProb: 0.25, Delay: 300 * time.Microsecond,
	}})

	const calls = 2000
	var k keeper
	var wg sync.WaitGroup
	for n := uint64(1); n <= calls; n++ {
		h, err := client.Create(server.Addr(), "blob")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		if err := h.Forward(&blobArg{N: n, Data: blobOf(n)}, Meta{}, func(h *Handle, err error) {
			defer wg.Done()
			if err != nil {
				t.Errorf("forward %d: %v", n, err)
			} else {
				k.keep(t, h)
			}
			h.Destroy()
		}); err != nil {
			t.Fatal(err)
		}
		if n%32 == 0 {
			wg.Wait()
		}
	}
	wg.Wait()
	// Every request ran twice and every run answered, so all but the
	// first answer to each were stale; the last ones may still be in
	// flight.
	deadline := time.Now().Add(5 * time.Second)
	for client.staleResponses.Load() < 3*calls && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if stale := client.staleResponses.Load(); stale < 3*calls {
		t.Errorf("%d stale responses, want %d (two handlers, two copies of each answer, one match)", stale, 3*calls)
	}
	k.check(t, calls)
}

// TestVectoredFrameMembersFinishOutOfOrder: the members of two vectored
// requests in flight together decode their inputs on arrival and are
// then answered and destroyed in a shuffled order across both frames.
// Each member's views are checked just before its own answer, after
// others of its frame are long gone: the frame must stay whole until
// its last member is reset, and go back to the pool then.
func TestVectoredFrameMembersFinishOutOfOrder(t *testing.T) {
	f := na.NewFabric(na.DefaultConfig())
	client := NewClass(newEndpoint(t, f, "node0", "client"), Config{})
	server := NewClass(newEndpoint(t, f, "node1", "server"), Config{})

	const entries = 24
	type member struct {
		h  *Handle
		in blobArg
	}
	var held []*member
	if err := server.Register("blob", func(h *Handle) {
		m := &member{h: h}
		if err := h.GetInput(&m.in); err != nil {
			t.Errorf("GetInput: %v", err)
		}
		held = append(held, m)
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Register("blob", nil); err != nil {
		t.Fatal(err)
	}

	var k keeper
	x := uint64(0x9e3779b97f4a7c15)
	for round := uint64(0); round < 200; round++ {
		done := 0
		for b := uint64(0); b < 2; b++ {
			bb := AcquireBatch()
			for e := uint64(0); e < entries; e++ {
				n := round*1000 + b*100 + e
				if err := bb.Add(&blobArg{N: n, Data: blobOf(n)}, Meta{}); err != nil {
					t.Fatal(err)
				}
			}
			h, err := client.Create(server.Addr(), "blob")
			if err != nil {
				t.Fatal(err)
			}
			if err := h.ForwardBatch(round*2+b+1, bb, func(h *Handle, err error) {
				if err != nil || h.BatchLen() != entries {
					t.Errorf("batch: err %v, %d entries back", err, h.BatchLen())
				}
				if round%50 == 0 {
					for e := 0; e < h.BatchLen(); e++ {
						out := new(blobReply)
						if err := h.BatchEntryOutput(e, out); err != nil || !out.intact() {
							t.Errorf("entry %d: output is not what was sent (%v)", e, err)
						}
						k.kept = append(k.kept, out)
					}
				}
				h.Destroy()
				done++
			}); err != nil {
				t.Fatal(err)
			}
			bb.Release()
		}
		spin(t, func() bool { return len(held) == 2*entries }, client, server)
		for len(held) > 0 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			i := int(x % uint64(len(held)))
			m := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			if !m.in.intact() {
				t.Fatalf("round %d: member %d's input changed while members of its frame were still alive", round, m.in.N)
			}
			if err := m.h.Respond(&m.in, Meta{}, nil); err != nil {
				t.Fatal(err)
			}
			m.h.Destroy()
		}
		spin(t, func() bool { return done == 2 }, client, server)
	}
	k.check(t, 4*2*entries)
}

// TestOutputIntactAfterManyForwards: an output whose reply type copies
// in its Proc is the caller's for good, though its frame went back to the
// pool when the handle was destroyed. Ten thousand further round trips,
// all through frames of the same class, must leave it as it was decoded.
func TestOutputIntactAfterManyForwards(t *testing.T) {
	f := na.NewFabric(na.DefaultConfig())
	client := NewClass(newEndpoint(t, f, "node0", "client"), Config{})
	server := NewClass(newEndpoint(t, f, "node1", "server"), Config{})
	registerBlobEcho(t, client, server, "blob")

	var k keeper
	forward := func(n uint64, keep bool) {
		h, err := client.Create(server.Addr(), "blob")
		if err != nil {
			t.Fatal(err)
		}
		done := false
		if err := h.Forward(&blobArg{N: n, Data: blobOf(n)}, Meta{}, func(h *Handle, err error) {
			if err != nil {
				t.Errorf("forward %d: %v", n, err)
			} else if keep {
				k.keep(t, h)
			}
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		spin(t, func() bool { return done }, client, server)
		h.Destroy()
	}
	forward(1, true)
	for n := uint64(2); n <= 10001; n++ {
		forward(n, n%2500 == 0)
	}
	k.check(t, 5)
}

// TestViewPastDestroyIsPoisoned: in a race build a view of a response
// frame kept past its handle's Destroy reads 0xDB once the frame is
// recycled — so the rule that output views end with the handle is
// enforced by the poison the recycle tests run under, not left to luck.
func TestViewPastDestroyIsPoisoned(t *testing.T) {
	if !RaceEnabled {
		t.Skip("recycled frames are overwritten only in race builds")
	}
	f := na.NewFabric(na.DefaultConfig())
	client := NewClass(newEndpoint(t, f, "node0", "client"), Config{})
	server := NewClass(newEndpoint(t, f, "node1", "server"), Config{})
	registerBlobEcho(t, client, server, "blob")

	h, err := client.Create(server.Addr(), "blob")
	if err != nil {
		t.Fatal(err)
	}
	var view blobArg
	done := false
	if err := h.Forward(&blobArg{N: 7, Data: blobOf(7)}, Meta{}, func(h *Handle, err error) {
		if err == nil {
			err = h.GetOutput(&view)
		}
		if err != nil || !view.intact() {
			t.Errorf("forward: %v (output intact: %v)", err, view.intact())
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	spin(t, func() bool { return done }, client, server)
	h.Destroy()
	// The response frame goes back with the handle's last reference,
	// which the request send's completion may still hold.
	spin(t, func() bool { return len(view.Data) > 0 && view.Data[0] == 0xDB }, client, server)
	for k, b := range view.Data {
		if b != 0xDB {
			t.Fatalf("byte %d of a view kept past Destroy reads %#x, want the 0xDB poison", k, b)
		}
	}
}
