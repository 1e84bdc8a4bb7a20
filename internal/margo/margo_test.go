package margo

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/na"
)

// cluster is a small virtual deployment for tests.
type cluster struct {
	fabric *na.Fabric
	insts  []*Instance
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	c := &cluster{fabric: na.NewFabric(na.DefaultConfig())}
	t.Cleanup(func() {
		for _, i := range c.insts {
			i.Shutdown()
		}
	})
	return c
}

func (c *cluster) add(t *testing.T, opts Options) *Instance {
	t.Helper()
	opts.Fabric = c.fabric
	inst, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.insts = append(c.insts, inst)
	return inst
}

type kvArgs struct {
	Key   string
	Value []byte
}

func (a *kvArgs) Proc(p *mercury.Proc) error {
	p.String(&a.Key)
	p.Bytes(&a.Value)
	return p.Err()
}

// kvReply is kvArgs as a caller that keeps the reply decodes it: Value is
// copied out of the response frame, which is recycled before Forward
// returns.
type kvReply struct{ kvArgs }

func (a *kvReply) Proc(p *mercury.Proc) error {
	if err := a.kvArgs.Proc(p); err != nil {
		return err
	}
	if p.Op() == mercury.OpDecode {
		a.Value = append([]byte(nil), a.Value...)
	}
	return nil
}

// call runs fn inside a fresh client ULT and waits for it.
func call(t *testing.T, inst *Instance, fn func(self *abt.ULT) error) error {
	t.Helper()
	var err error
	u := inst.Run("test-client", func(self *abt.ULT) { err = fn(self) })
	if jerr := u.Join(nil); jerr != nil {
		t.Fatalf("client ULT: %v", jerr)
	}
	return err
}

func TestForwardEndToEnd(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})

	store := map[string][]byte{}
	var mu abt.Mutex
	if err := srv.Register("kv_put", func(ctx *Context) {
		var in kvArgs
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		mu.Lock(ctx.Self)
		store[in.Key] = append([]byte(nil), in.Value...) // views end with the handler
		mu.Unlock()
		ctx.Respond(mercury.Void{})
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("kv_get", func(ctx *Context) {
		var in kvArgs
		ctx.GetInput(&in)
		mu.Lock(ctx.Self)
		v := store[in.Key]
		mu.Unlock()
		out := kvArgs{Key: in.Key, Value: v}
		ctx.Respond(&out)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.RegisterClient("kv_put", "kv_get"); err != nil {
		t.Fatal(err)
	}

	err := call(t, cli, func(self *abt.ULT) error {
		if err := cli.Forward(self, srv.Addr(), "kv_put", &kvArgs{Key: "k", Value: []byte("v1")}, nil); err != nil {
			return err
		}
		var out kvReply
		if err := cli.Forward(self, srv.Addr(), "kv_get", &kvArgs{Key: "k"}, &out); err != nil {
			return err
		}
		if string(out.Value) != "v1" {
			t.Errorf("get = %q", out.Value)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForwardErrorFromHandler(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	srv.Register("boom", func(ctx *Context) { ctx.RespondError("no capacity") })
	cli.RegisterClient("boom")

	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "boom", &mercury.Void{}, nil)
	})
	if !errors.Is(err, mercury.ErrHandlerFail) || !strings.Contains(err.Error(), "no capacity") {
		t.Fatalf("err = %v", err)
	}
}

func TestHandlerWithoutRespondFailsLoudly(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	srv.Register("lazy", func(ctx *Context) {})
	cli.RegisterClient("lazy")
	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "lazy", &mercury.Void{}, nil)
	})
	if !errors.Is(err, mercury.ErrHandlerFail) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterOnClientRejected(t *testing.T) {
	c := newCluster(t)
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	if err := cli.Register("x", func(*Context) {}); err == nil {
		t.Fatal("Register on client accepted")
	}
}

func TestBreadcrumbChainsAcrossProcesses(t *testing.T) {
	// client -> mid (handler forwards) -> leaf; the leaf must trace its
	// span under a depth-2 breadcrumb ending in its own RPC and the
	// client's request ID.
	c := newCluster(t)
	leaf := c.add(t, Options{Mode: ModeServer, Node: "n2", Name: "leaf", Stage: core.StageFull})
	mid := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "mid", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})

	leaf.Register("leaf_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	mid.Register("mid_rpc", func(ctx *Context) {
		if err := ctx.Forward(leaf.Addr(), "leaf_rpc", &mercury.Void{}, nil); err != nil {
			ctx.RespondError("leaf: %v", err)
			return
		}
		ctx.Respond(mercury.Void{})
	})
	mid.RegisterClient("leaf_rpc")
	cli.RegisterClient("mid_rpc")

	err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, mid.Addr(), "mid_rpc", &mercury.Void{}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	want := core.Breadcrumb(0).Push("mid_rpc").Push("leaf_rpc")
	var rootID uint64
	for _, ev := range cli.Profiler().TraceEvents() {
		if ev.Kind == core.EvOriginStart {
			rootID = ev.RequestID
		}
	}
	var leafStart *core.Event
	for _, ev := range leaf.Profiler().TraceEvents() {
		if ev.Kind == core.EvTargetStart {
			leafStart = &ev
		}
	}
	if leafStart == nil {
		t.Fatal("the leaf traced no target start")
	}
	if bc := core.Breadcrumb(leafStart.Breadcrumb); bc != want {
		t.Fatalf("leaf breadcrumb = %v, want %v", bc, want)
	}
	if rootID == 0 || leafStart.RequestID != rootID {
		t.Fatalf("leaf request ID = %d, want the client's %d", leafStart.RequestID, rootID)
	}

	// The mid profile must hold an origin entry for mid_rpc=>leaf_rpc.
	found := false
	for k := range mid.Profiler().OriginStats() {
		if k.BC == want && k.Peer == leaf.Addr() {
			found = true
		}
	}
	if !found {
		t.Fatalf("mid origin stats missing chained callpath: %+v", mid.Profiler().OriginStats())
	}
}

func TestProfileComponentsRecorded(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	srv.Register("work_rpc", func(ctx *Context) {
		var in kvArgs
		if err := ctx.GetInput(&in); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		ctx.Compute(2 * time.Millisecond)
		ctx.Respond(mercury.Void{})
	})
	cli.RegisterClient("work_rpc")

	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "work_rpc", &kvArgs{Key: "k", Value: make([]byte, 512)}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	// Target-side completion measurements land after t13; wait briefly.
	time.Sleep(20 * time.Millisecond)

	bc := core.Breadcrumb(0).Push("work_rpc")
	ostats := cli.Profiler().OriginStats()
	o, ok := ostats[core.StatKey{BC: bc, Peer: srv.Addr()}]
	if !ok {
		t.Fatalf("origin stats missing: %+v", ostats)
	}
	if o.Count != 1 || o.Components[core.CompOriginExec] < uint64(2*time.Millisecond) {
		t.Fatalf("origin stats = %+v", o)
	}

	tstats := srv.Profiler().TargetStats()
	tg, ok := tstats[core.StatKey{BC: bc, Peer: cli.Addr()}]
	if !ok {
		t.Fatalf("target stats missing: %+v", tstats)
	}
	if tg.Components[core.CompTargetExec] < uint64(2*time.Millisecond) {
		t.Fatalf("target exec = %v", tg.Components[core.CompTargetExec])
	}
	if tg.Components[core.CompInputDeser] == 0 {
		t.Fatal("input deserialization PVAR not fused at Full stage")
	}
}

func TestTraceEventsEmittedAtFourPoints(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
	srv.Register("traced_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("traced_rpc")

	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "traced_rpc", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatal(err)
	}

	cliEvs := cli.Profiler().TraceEvents()
	srvEvs := srv.Profiler().TraceEvents()
	kinds := map[core.EventKind]int{}
	var reqID uint64
	for _, e := range append(cliEvs, srvEvs...) {
		kinds[e.Kind]++
		if reqID == 0 {
			reqID = e.RequestID
		} else if e.RequestID != reqID {
			t.Fatalf("request IDs differ across events: %#x vs %#x", e.RequestID, reqID)
		}
	}
	for _, k := range []core.EventKind{core.EvOriginStart, core.EvTargetStart, core.EvTargetEnd, core.EvOriginEnd} {
		if kinds[k] != 1 {
			t.Fatalf("event kinds = %v, want one of each", kinds)
		}
	}
	// Lamport order must increase along the causal chain t1<t5<=t8<t14.
	get := func(evs []core.Event, k core.EventKind) core.Event {
		for _, e := range evs {
			if e.Kind == k {
				return e
			}
		}
		t.Fatalf("missing event %v", k)
		return core.Event{}
	}
	t1 := get(cliEvs, core.EvOriginStart)
	t5 := get(srvEvs, core.EvTargetStart)
	t8 := get(srvEvs, core.EvTargetEnd)
	t14 := get(cliEvs, core.EvOriginEnd)
	if !(t1.Order < t5.Order && t5.Order <= t8.Order && t8.Order < t14.Order) {
		t.Fatalf("lamport orders not causal: %d %d %d %d", t1.Order, t5.Order, t8.Order, t14.Order)
	}
	if t14.Components == nil || t14.Components[core.CompOriginExec] == 0 {
		t.Fatal("origin end event missing component breakdown")
	}
	if t14.PVars == nil {
		t.Fatal("origin end event missing PVAR sample at Full stage")
	}
}

func TestStageGatingBehaviour(t *testing.T) {
	for _, tc := range []struct {
		stage       core.Stage
		wantTrace   bool
		wantProfile bool
		wantPVars   bool
	}{
		{core.StageOff, false, false, false},
		{core.StageInject, false, false, false},
		{core.StageProfile, true, true, false},
		{core.StageFull, true, true, true},
	} {
		t.Run(tc.stage.String(), func(t *testing.T) {
			c := newCluster(t)
			srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: tc.stage})
			cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: tc.stage})
			srv.Register("gated_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
			cli.RegisterClient("gated_rpc")
			if err := call(t, cli, func(self *abt.ULT) error {
				return cli.Forward(self, srv.Addr(), "gated_rpc", &mercury.Void{}, nil)
			}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)

			if got := cli.Profiler().TraceLen() > 0; got != tc.wantTrace {
				t.Errorf("trace emitted = %v, want %v", got, tc.wantTrace)
			}
			if got := len(cli.Profiler().OriginStats()) > 0; got != tc.wantProfile {
				t.Errorf("profile recorded = %v, want %v", got, tc.wantProfile)
			}
			if tc.wantProfile {
				for _, s := range cli.Profiler().OriginStats() {
					if got := s.Components[core.CompInputSer] > 0; got != tc.wantPVars {
						t.Errorf("pvar fusion = %v, want %v", got, tc.wantPVars)
					}
				}
			}
		})
	}
}

func TestHandlerSaturationVisibleInHandlerTime(t *testing.T) {
	// One handler stream and parallel 3ms requests: later requests wait
	// in the pool, so cumulative handler time is significant (Fig 9).
	run := func(streams int) time.Duration {
		c := newCluster(t)
		srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv",
			Stage: core.StageFull, HandlerStreams: streams})
		cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull})
		srv.Register("slow_rpc", func(ctx *Context) {
			ctx.Compute(3 * time.Millisecond)
			ctx.Respond(mercury.Void{})
		})
		cli.RegisterClient("slow_rpc")

		const n = 8
		ults := make([]*abt.ULT, n)
		for k := 0; k < n; k++ {
			ults[k] = cli.Run("issuer", func(self *abt.ULT) {
				cli.Forward(self, srv.Addr(), "slow_rpc", &mercury.Void{}, nil)
			})
		}
		for _, u := range ults {
			u.Join(nil)
		}
		time.Sleep(20 * time.Millisecond)
		var handler time.Duration
		for _, s := range srv.Profiler().TargetStats() {
			handler += time.Duration(s.Components[core.CompHandler])
		}
		for _, i := range c.insts {
			i.Shutdown()
		}
		return handler
	}
	scarce := run(1)
	ample := run(8)
	if scarce < 3*time.Millisecond {
		t.Fatalf("scarce handler time = %v, want >= 3ms", scarce)
	}
	if ample*2 >= scarce {
		t.Fatalf("handler time scarce=%v ample=%v, want ample << scarce", scarce, ample)
	}
}

func TestWaitIdle(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	srv.Register("idle_rpc", func(ctx *Context) {
		ctx.Compute(2 * time.Millisecond)
		ctx.Respond(mercury.Void{})
	})
	cli.RegisterClient("idle_rpc")
	u := cli.Run("c", func(self *abt.ULT) {
		cli.Forward(self, srv.Addr(), "idle_rpc", &mercury.Void{}, nil)
	})
	if !cli.WaitIdle(5 * time.Second) {
		t.Fatal("WaitIdle timed out")
	}
	u.Join(nil)
	if cli.InFlight() != 0 {
		t.Fatalf("InFlight = %d", cli.InFlight())
	}
}

func TestShutdownIdempotent(t *testing.T) {
	c := newCluster(t)
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})
	cli.Shutdown()
	cli.Shutdown()
}

func TestDuplicateEndpointNameFails(t *testing.T) {
	c := newCluster(t)
	c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "dup"})
	if _, err := New(Options{Mode: ModeClient, Node: "n0", Name: "dup", Fabric: c.fabric}); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

func TestMissingFabricRejected(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("nil fabric accepted")
	}
}

func TestBulkThroughMargo(t *testing.T) {
	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli"})

	// Server pulls the client's exposed region, doubles each byte, and
	// pushes it back — exercising both directions inside a handler ULT.
	srv.Register("transform", func(ctx *Context) {
		var b mercury.Bulk
		if err := ctx.GetInput(&b); err != nil {
			ctx.RespondError("decode: %v", err)
			return
		}
		buf := make([]byte, b.Size())
		if err := ctx.BulkPull(b, 0, buf); err != nil {
			ctx.RespondError("pull: %v", err)
			return
		}
		for i := range buf {
			buf[i] *= 2
		}
		if err := ctx.BulkPush(b, 0, buf); err != nil {
			ctx.RespondError("push: %v", err)
			return
		}
		ctx.Respond(mercury.Void{})
	})
	cli.RegisterClient("transform")

	data := []byte{1, 2, 3, 4}
	bulk := cli.BulkCreate(data)
	defer cli.BulkFree(bulk)
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "transform", &bulk, nil)
	}); err != nil {
		t.Fatal(err)
	}
	want := []byte{2, 4, 6, 8}
	for i := range want {
		if data[i] != want[i] {
			t.Fatalf("data = %v, want %v", data, want)
		}
	}
}

func TestDedicatedProgressESOption(t *testing.T) {
	c := newCluster(t)
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", DedicatedProgressES: true})
	if cli.progressPool == cli.mainPool {
		t.Fatal("progress ULT shares the main pool, want a pool and stream of its own")
	}
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv"})
	srv.Register("ok_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("ok_rpc")
	if err := call(t, cli, func(self *abt.ULT) error {
		return cli.Forward(self, srv.Addr(), "ok_rpc", &mercury.Void{}, nil)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMeasurementShardsAndTraceSink checks the sharded-pipeline wiring:
// a streaming sink attached via Options observes every event the
// instance emits, the merged snapshot matches what the sink consumed,
// and the target profile merges across the Profiler's shards.
func TestMeasurementShardsAndTraceSink(t *testing.T) {
	var sinkBuf bytes.Buffer
	sink := core.NewJSONLTraceSink(&sinkBuf)

	c := newCluster(t)
	srv := c.add(t, Options{Mode: ModeServer, Node: "n1", Name: "srv", Stage: core.StageFull})
	cli := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "cli", Stage: core.StageFull,
		TraceSinks: []core.TraceSink{sink}})

	srv.Register("sharded_rpc", func(ctx *Context) { ctx.Respond(mercury.Void{}) })
	cli.RegisterClient("sharded_rpc")
	const calls = 5
	for k := 0; k < calls; k++ {
		if err := call(t, cli, func(self *abt.ULT) error {
			return cli.Forward(self, srv.Addr(), "sharded_rpc", &mercury.Void{}, nil)
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv.WaitIdle(2 * time.Second)
	time.Sleep(10 * time.Millisecond) // let t13 callbacks land

	// The client ring holds t1+t14 per call; the sink saw the same
	// stream (origin side only — it is attached to the client).
	if got := cli.Profiler().TraceLen(); got != 2*calls {
		t.Fatalf("client trace len = %d, want %d", got, 2*calls)
	}
	if err := cli.Profiler().FlushSinks(); err != nil {
		t.Fatal(err)
	}
	evs, _, err := core.ReadEventsJSONL(&sinkBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2*calls {
		t.Fatalf("sink saw %d events, want %d", len(evs), 2*calls)
	}

	// Target-side profile merged across handler-ULT shards: all calls
	// present exactly once.
	var total uint64
	for _, s := range srv.Profiler().TargetStats() {
		total += s.Count
	}
	if total != calls {
		t.Fatalf("merged target count = %d, want %d", total, calls)
	}
}

// TestSamplePVarsMatchesByNameReads: a trace event's PVAR sample, read
// through the handles the instance resolved once, equals what a session
// reads by name, library-global counters and handle-bound timers alike.
func TestSamplePVarsMatchesByNameReads(t *testing.T) {
	c := newCluster(t)
	inst := c.add(t, Options{Mode: ModeClient, Node: "n0", Name: "pv"})
	hg := inst.Mercury()
	if err := hg.Register("pv_rpc", nil); err != nil {
		t.Fatal(err)
	}
	mh, err := hg.Create(inst.Addr(), "pv_rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer mh.Destroy()
	for k, d := range []time.Duration{310, 420, 530, 640, 750} {
		[]*pvar.Timer{&mh.InputSerTime, &mh.InputDeserTime, &mh.OutputSerTime, &mh.RDMATime, &mh.OriginCBTime}[k].SetDuration(d)
	}
	var got core.PVarSample
	if inst.samplePVars(core.StageFull, &got, mh) == nil {
		t.Fatal("StageFull sampled no PVARs")
	}

	s := hg.PVars().InitSession()
	defer s.Finalize()
	read := func(name string, obj any) uint64 {
		h, err := s.AllocHandleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Read(h, obj)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := core.PVarSample{
		OFIEventsRead:    read(mercury.PVarNumOFIEventsRead, nil),
		CompletionQueue:  read(mercury.PVarCompletionQueueSize, nil),
		PostedHandles:    read(mercury.PVarNumPostedHandles, nil),
		RPCsInvokedTotal: read(mercury.PVarNumRPCsInvoked, nil),
		BulkBytesMoved:   read(mercury.PVarBulkBytesTransferred, nil),
		NetworkPending:   uint64(hg.NetworkPending()),
		InputSerNanos:    read(mercury.PVarInputSerTime, mh),
		InputDeserNanos:  read(mercury.PVarInputDeserTime, mh),
		OutputSerNanos:   read(mercury.PVarOutputSerTime, mh),
		RDMANanos:        read(mercury.PVarInternalRDMATime, mh),
		OriginCBNanos:    read(mercury.PVarOriginCBTime, mh),
	}
	if got != want {
		t.Errorf("sampled %+v, read by name %+v", got, want)
	}
	if got.InputSerNanos != 310 || got.OriginCBNanos != 750 {
		t.Errorf("bound timers sampled as %+v", got)
	}
}
