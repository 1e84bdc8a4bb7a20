package mercury

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"symbiosys/internal/na"
)

// progressLoop drives a Class from a plain goroutine until stopped.
type progressLoop struct {
	stop chan struct{}
	done chan struct{}
}

func drive(c *Class) *progressLoop {
	pl := &progressLoop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(pl.done)
		for {
			select {
			case <-pl.stop:
				return
			default:
			}
			c.Progress(time.Millisecond)
			c.Trigger(64)
		}
	}()
	return pl
}

func (pl *progressLoop) Stop() {
	close(pl.stop)
	<-pl.done
}

type testPair struct {
	client, server *Class
}

// newRPCPair builds a driven client/server pair on separate nodes.
func newRPCPair(t *testing.T, cfg Config) testPair {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	cep, err := f.NewEndpoint("node0", "client")
	if err != nil {
		t.Fatal(err)
	}
	sep, err := f.NewEndpoint("node1", "server")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClass(cep, cfg)
	server := NewClass(sep, cfg)
	cpl, spl := drive(client), drive(server)
	t.Cleanup(func() { cpl.Stop(); spl.Stop() })
	return testPair{client: client, server: server}
}

type echoArgs struct {
	Msg string
	N   uint64
}

func (a *echoArgs) Proc(p *Proc) error {
	p.String(&a.Msg)
	p.Uint64(&a.N)
	return p.Err()
}

// forwardWait forwards and blocks until the callback fires.
func forwardWait(t *testing.T, h *Handle, in Procable, meta Meta) error {
	t.Helper()
	done := make(chan error, 1)
	if err := h.Forward(in, meta, func(h *Handle, err error) { done <- err }); err != nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("forward timed out")
		return nil
	}
}

func registerEcho(t *testing.T, p testPair) {
	t.Helper()
	if err := p.server.Register("echo_rpc", func(h *Handle) {
		var in echoArgs
		if err := h.GetInput(&in); err != nil {
			h.RespondError(err.Error(), Meta{}, nil)
			return
		}
		out := echoArgs{Msg: strings.ToUpper(in.Msg), N: in.N + 1}
		if err := h.Respond(&out, Meta{}, nil); err != nil {
			t.Errorf("Respond: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.client.Register("echo_rpc", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRPCEndToEnd(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerEcho(t, p)

	h, err := p.client.Create(p.server.Addr(), "echo_rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Destroy()
	if err := forwardWait(t, h, &echoArgs{Msg: "hi", N: 41}, Meta{}); err != nil {
		t.Fatal(err)
	}
	var out echoArgs
	if err := h.GetOutput(&out); err != nil {
		t.Fatal(err)
	}
	if out.Msg != "HI" || out.N != 42 {
		t.Fatalf("out = %+v", out)
	}
}

func TestRPCManyConcurrent(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerEcho(t, p)

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]echoArgs, n)
	for i := 0; i < n; i++ {
		h, err := p.client.Create(p.server.Addr(), "echo_rpc")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		idx := i
		err = h.Forward(&echoArgs{Msg: "m", N: uint64(idx)}, Meta{}, func(h *Handle, err error) {
			defer wg.Done()
			errs[idx] = err
			if err == nil {
				errs[idx] = h.GetOutput(&outs[idx])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("rpc %d: %v", i, errs[i])
		}
		if outs[i].N != uint64(i)+1 {
			t.Fatalf("rpc %d: out = %+v", i, outs[i])
		}
	}
}

func TestUnknownRPCFailsFast(t *testing.T) {
	p := newRPCPair(t, Config{})
	if err := p.client.Register("ghost_rpc", nil); err != nil {
		t.Fatal(err)
	}
	h, err := p.client.Create(p.server.Addr(), "ghost_rpc")
	if err != nil {
		t.Fatal(err)
	}
	if err := forwardWait(t, h, &Void{}, Meta{}); !errors.Is(err, ErrUnknownRPC) {
		t.Fatalf("err = %v, want ErrUnknownRPC", err)
	}
}

func TestCreateUnregisteredFails(t *testing.T) {
	p := newRPCPair(t, Config{})
	if _, err := p.client.Create(p.server.Addr(), "never_registered"); !errors.Is(err, ErrUnknownRPC) {
		t.Fatalf("err = %v", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	p := newRPCPair(t, Config{})
	p.server.Register("fail_rpc", func(h *Handle) {
		h.RespondError("backend on fire", Meta{}, nil)
	})
	p.client.Register("fail_rpc", nil)
	h, _ := p.client.Create(p.server.Addr(), "fail_rpc")
	err := forwardWait(t, h, &Void{}, Meta{})
	if !errors.Is(err, ErrHandlerFail) || !strings.Contains(err.Error(), "backend on fire") {
		t.Fatalf("err = %v", err)
	}
}

func TestForwardToDeadAddressFails(t *testing.T) {
	p := newRPCPair(t, Config{})
	p.client.Register("echo_rpc", nil)
	h, _ := p.client.Create("node9/ghost", "echo_rpc")
	err := forwardWait(t, h, &Void{}, Meta{})
	if err == nil {
		t.Fatal("forward to dead address succeeded")
	}
}

func TestCancel(t *testing.T) {
	p := newRPCPair(t, Config{})
	// A handler that never responds.
	block := make(chan struct{})
	p.server.Register("slow_rpc", func(h *Handle) { <-block })
	defer close(block)
	p.client.Register("slow_rpc", nil)
	h, _ := p.client.Create(p.server.Addr(), "slow_rpc")
	done := make(chan error, 1)
	h.Forward(&Void{}, Meta{}, func(h *Handle, err error) { done <- err })
	time.Sleep(5 * time.Millisecond)
	h.Cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel callback never fired")
	}
}

func TestEagerOverflowUsesRDMA(t *testing.T) {
	p := newRPCPair(t, Config{})
	var gotSize int
	var rdmaNanos uint64
	doneServer := make(chan struct{}, 1)
	p.server.Register("big_rpc", func(h *Handle) {
		var in echoArgs
		if err := h.GetInput(&in); err != nil {
			t.Errorf("GetInput: %v", err)
		}
		gotSize = len(in.Msg)
		rdmaNanos = h.RDMATime.Nanos()
		h.Respond(&Void{}, Meta{}, nil)
		doneServer <- struct{}{}
	})
	p.client.Register("big_rpc", nil)

	big := strings.Repeat("x", 10_000)
	h, _ := p.client.Create(p.server.Addr(), "big_rpc")
	if err := forwardWait(t, h, &echoArgs{Msg: big}, Meta{}); err != nil {
		t.Fatal(err)
	}
	<-doneServer
	if gotSize != len(big) {
		t.Fatalf("server saw %d bytes, want %d", gotSize, len(big))
	}
	if rdmaNanos == 0 {
		t.Fatal("internal RDMA timer is zero for overflowing request")
	}
	// The overflow counter must have fired on the origin.
	s := p.client.PVars().InitSession()
	defer s.Finalize()
	ph, _ := s.AllocHandleByName(PVarNumEagerOverflows)
	if v, _ := s.Read(ph, nil); v != 1 {
		t.Fatalf("num_eager_overflows = %d, want 1", v)
	}
}

func TestSmallRequestSkipsRDMA(t *testing.T) {
	p := newRPCPair(t, Config{})
	var rdmaNanos uint64 = 99
	p.server.Register("small_rpc", func(h *Handle) {
		rdmaNanos = h.RDMATime.Nanos()
		h.Respond(&Void{}, Meta{}, nil)
	})
	p.client.Register("small_rpc", nil)
	h, _ := p.client.Create(p.server.Addr(), "small_rpc")
	if err := forwardWait(t, h, &echoArgs{Msg: "tiny"}, Meta{}); err != nil {
		t.Fatal(err)
	}
	if rdmaNanos != 0 {
		t.Fatalf("RDMA timer = %d for eager-fit request", rdmaNanos)
	}
}

func TestMetaPropagation(t *testing.T) {
	p := newRPCPair(t, Config{})
	var got Meta
	p.server.Register("meta_rpc", func(h *Handle) {
		got = h.Meta()
		h.Respond(&Void{}, Meta{HasTrace: true, Order: 77}, nil)
	})
	p.client.Register("meta_rpc", nil)
	h, _ := p.client.Create(p.server.Addr(), "meta_rpc")
	meta := Meta{HasTrace: true, Breadcrumb: 0xBEEF, RequestID: 123, Order: 5}
	if err := forwardWait(t, h, &Void{}, meta); err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("target meta = %+v, want %+v", got, meta)
	}
	if rm := h.RespMeta(); !rm.HasTrace || rm.Order != 77 {
		t.Fatalf("resp meta = %+v", rm)
	}
}

func TestMetaAbsentWithoutTrace(t *testing.T) {
	p := newRPCPair(t, Config{})
	var got Meta
	p.server.Register("plain_rpc", func(h *Handle) {
		got = h.Meta()
		h.Respond(&Void{}, Meta{}, nil)
	})
	p.client.Register("plain_rpc", nil)
	h, _ := p.client.Create(p.server.Addr(), "plain_rpc")
	if err := forwardWait(t, h, &Void{}, Meta{Breadcrumb: 0xFF}); err != nil {
		t.Fatal(err)
	}
	if got.HasTrace || got.Breadcrumb != 0 {
		t.Fatalf("meta leaked without trace flag: %+v", got)
	}
}

func TestBulkPullPush(t *testing.T) {
	p := newRPCPair(t, Config{})
	// Client exposes data; server pulls it via an RPC carrying the bulk
	// descriptor, then pushes a transformed copy back.
	data := []byte("bulk-data-0123456789")
	clientBuf := make([]byte, len(data))
	copy(clientBuf, data)
	bulk := p.client.BulkCreate(clientBuf)
	defer p.client.BulkFree(bulk)

	type bulkArgs struct{ B Bulk }
	var _ = bulkArgs{}

	pulled := make(chan []byte, 1)
	p.server.Register("pull_rpc", func(h *Handle) {
		var in Bulk
		if err := h.GetInput(&in); err != nil {
			t.Errorf("GetInput: %v", err)
			return
		}
		local := make([]byte, in.Size())
		h.class.BulkPull(in, 0, local, func(_ any, err error) {
			if err != nil {
				t.Errorf("BulkPull: %v", err)
			}
			pulled <- local
			h.Respond(&Void{}, Meta{}, nil)
		}, nil)
	})
	p.client.Register("pull_rpc", nil)
	h, _ := p.client.Create(p.server.Addr(), "pull_rpc")
	if err := forwardWait(t, h, &bulk, Meta{}); err != nil {
		t.Fatal(err)
	}
	got := <-pulled
	if string(got) != string(data) {
		t.Fatalf("pulled %q, want %q", got, data)
	}
}

func TestPVarGlobalCounters(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerEcho(t, p)
	for i := 0; i < 3; i++ {
		h, _ := p.client.Create(p.server.Addr(), "echo_rpc")
		if err := forwardWait(t, h, &echoArgs{Msg: "x"}, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	cs := p.client.PVars().InitSession()
	defer cs.Finalize()
	read := func(name string) uint64 {
		t.Helper()
		h, err := cs.AllocHandleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := cs.Read(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := read(PVarNumRPCsInvoked); v != 3 {
		t.Fatalf("num_rpcs_invoked = %d, want 3", v)
	}
	if v := read(PVarNumPostedHandles); v != 0 {
		t.Fatalf("num_posted_handles = %d, want 0 at rest", v)
	}
	if v := read(PVarPostedHandlesHWM); v < 1 {
		t.Fatalf("posted HWM = %d, want >= 1", v)
	}

	ss := p.server.PVars().InitSession()
	defer ss.Finalize()
	sh, _ := ss.AllocHandleByName(PVarNumRPCsHandled)
	if v, _ := ss.Read(sh, nil); v != 3 {
		t.Fatalf("num_rpcs_handled = %d, want 3", v)
	}
}

func TestPVarHandleBoundTimers(t *testing.T) {
	p := newRPCPair(t, Config{})
	registerEcho(t, p)
	h, _ := p.client.Create(p.server.Addr(), "echo_rpc")
	if err := forwardWait(t, h, &echoArgs{Msg: strings.Repeat("y", 2000)}, Meta{}); err != nil {
		t.Fatal(err)
	}
	s := p.client.PVars().InitSession()
	defer s.Finalize()
	ser, _ := s.AllocHandleByName(PVarInputSerTime)
	v, err := s.Read(ser, h)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Fatal("input serialization time PVAR is zero")
	}
	ocb, _ := s.AllocHandleByName(PVarOriginCBTime)
	if _, err := s.Read(ocb, h); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterCollisionAndReplace(t *testing.T) {
	p := newRPCPair(t, Config{})
	if err := p.server.Register("dup", nil); err != nil {
		t.Fatal(err)
	}
	// nil -> handler upgrade is allowed.
	if err := p.server.Register("dup", func(h *Handle) {}); err != nil {
		t.Fatal(err)
	}
	// handler -> handler conflicts.
	if err := p.server.Register("dup", func(h *Handle) {}); !errors.Is(err, ErrRPCRegister) {
		t.Fatalf("err = %v", err)
	}
}

// TestRPCNameLookup: the target resolves the RPC id on the wire back to
// the name the handler was registered under (an unknown id is
// TestUnknownRPCFailsFast).
func TestRPCNameLookup(t *testing.T) {
	p := newRPCPair(t, Config{})
	var name string
	p.server.Register("lookup_rpc", func(h *Handle) {
		name = h.rpcName
		h.Respond(&Void{}, Meta{}, nil)
	})
	p.client.Register("lookup_rpc", nil)
	h, err := p.client.Create(p.server.Addr(), "lookup_rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Destroy()
	if err := forwardWait(t, h, &Void{}, Meta{}); err != nil {
		t.Fatal(err)
	}
	if name != "lookup_rpc" {
		t.Fatalf("the handler serviced %q", name)
	}
}

func TestForwardOnTargetHandleRejected(t *testing.T) {
	p := newRPCPair(t, Config{})
	errCh := make(chan error, 1)
	p.server.Register("bad_rpc", func(h *Handle) {
		errCh <- h.Forward(&Void{}, Meta{}, nil)
		h.Respond(&Void{}, Meta{}, nil)
	})
	p.client.Register("bad_rpc", nil)
	h, _ := p.client.Create(p.server.Addr(), "bad_rpc")
	if err := forwardWait(t, h, &Void{}, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("Forward on target handle accepted")
	}
}

func TestDestroyedHandleRejectsForward(t *testing.T) {
	p := newRPCPair(t, Config{})
	p.client.Register("echo_rpc", nil)
	h, _ := p.client.Create(p.server.Addr(), "echo_rpc")
	h.Destroy()
	if err := h.Forward(&Void{}, Meta{}, nil); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("err = %v", err)
	}
}

// seqArg is a payload whose codec allocates nothing.
type seqArg struct{ N uint64 }

func (a *seqArg) Proc(p *Proc) error { return p.Uint64(&a.N) }

// TestEchoRoundTripAllocs pins one Class-only round trip, both sides
// driven from this goroutine: the handler's argument value, which
// escapes through the codec's interface, and nothing else. Frames and
// handles are recycled (the handler destroys its own after responding),
// fabric messages travel by value, and completion-queue entries, send
// contexts and headers cost nothing.
func TestEchoRoundTripAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("pooled records are dropped at random under the race detector")
	}
	f := na.NewFabric(na.DefaultConfig())
	cep, err := f.NewEndpoint("node0", "client")
	if err != nil {
		t.Fatal(err)
	}
	sep, err := f.NewEndpoint("node1", "server")
	if err != nil {
		t.Fatal(err)
	}
	client, server := NewClass(cep, Config{}), NewClass(sep, Config{})
	server.Register("echo", func(h *Handle) {
		var in seqArg
		if err := h.GetInput(&in); err != nil {
			t.Errorf("GetInput: %v", err)
		}
		if err := h.Respond(&in, Meta{HasTrace: true, Order: in.N}, func(error) {}); err != nil {
			t.Errorf("Respond: %v", err)
		}
		h.Destroy()
	})
	client.Register("echo", nil)

	var arg seqArg
	done := false
	cb := func(h *Handle, err error) {
		if err == nil {
			err = h.GetOutput(&arg)
		}
		if err != nil {
			t.Errorf("forward: %v", err)
		}
		done = true
	}
	rtt := func() {
		arg.N++
		want := arg.N
		h, err := client.Create(server.Addr(), "echo")
		if err != nil {
			t.Fatal(err)
		}
		done = false
		meta := Meta{HasTrace: true, Breadcrumb: 1, RequestID: want, Order: want, DeadlineNanos: 1 << 62}
		if err := h.Forward(&arg, meta, cb); err != nil {
			t.Fatal(err)
		}
		for !done {
			if server.Progress(0)+server.Trigger(16)+client.Progress(0)+client.Trigger(16) == 0 {
				runtime.Gosched()
			}
		}
		if arg.N != want || h.RespMeta().Order != want {
			t.Fatalf("echo = %d (order %d), want %d", arg.N, h.RespMeta().Order, want)
		}
		h.Destroy()
	}
	for k := 0; k < 64; k++ {
		rtt()
	}
	if n := testing.AllocsPerRun(1000, rtt); n > 1 {
		t.Errorf("echo round trip allocates %.2f objects, want <= 1", n)
	}
}

// TestCompletionQueueIsFIFOAcrossGrowthAndWrap drives the completion
// ring through growth while its head is mid-array: completions must run
// in enqueue order, and the queue-size PVAR must follow the depth.
func TestCompletionQueueIsFIFOAcrossGrowthAndWrap(t *testing.T) {
	f := na.NewFabric(na.DefaultConfig())
	ep, err := f.NewEndpoint("node0", "solo")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClass(ep, Config{})
	var ran []int
	record := func(arg any, err error) { ran = append(ran, arg.(int)) }
	next := 0
	enqueue := func(n int) {
		for k := 0; k < n; k++ {
			c.enqueue(completion{kind: compBulk, op: &bulkOp{cb: record, arg: next}})
			next++
		}
	}
	enqueue(12)
	if got := c.Trigger(7); got != 7 {
		t.Fatalf("Trigger(7) ran %d", got)
	}
	enqueue(11) // fills the 16-slot ring past its end
	enqueue(40) // grows it, twice, with the head at 7
	if got, want := c.cqLen, 12-7+11+40; got != want || c.cqLevel.Load() != int64(want) {
		t.Fatalf("queue depth = %d (pvar %d), want %d", got, c.cqLevel.Load(), want)
	}
	for c.Trigger(5) > 0 {
	}
	if c.cqLen != 0 || c.cqLevel.Load() != 0 {
		t.Fatalf("queue depth after drain = %d (pvar %d)", c.cqLen, c.cqLevel.Load())
	}
	if len(ran) != next {
		t.Fatalf("ran %d completions, enqueued %d", len(ran), next)
	}
	for k, v := range ran {
		if v != k {
			t.Fatalf("completion %d ran at position %d", v, k)
		}
	}
}
