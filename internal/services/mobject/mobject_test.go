package mobject

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

type env struct {
	srv, cli *margo.Instance
	node     *ProviderNode
	client   *Client
}

func newEnv(t *testing.T) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n1", Name: "mobject", Fabric: f,
		HandlerStreams: 8, Stage: core.StageFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "n0", Name: "ior", Fabric: f, Stage: core.StageFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Shutdown(); srv.Shutdown() })
	node, err := RegisterProviderNode(srv, "map")
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cli)
	if err != nil {
		t.Fatal(err)
	}
	return &env{srv: srv, cli: cli, node: node, client: client}
}

func (e *env) run(t *testing.T, fn func(self *abt.ULT) error) error {
	t.Helper()
	var err error
	u := e.cli.Run("t", func(self *abt.ULT) { err = fn(self) })
	if jerr := u.Join(nil); jerr != nil {
		t.Fatal(jerr)
	}
	return err
}

func TestWriteThenReadObject(t *testing.T) {
	e := newEnv(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KiB
	err := e.run(t, func(self *abt.ULT) error {
		if err := e.client.WriteOp(self, e.srv.Addr(), "obj-A", data); err != nil {
			return err
		}
		buf := make([]byte, len(data))
		n, err := e.client.ReadOp(self, e.srv.Addr(), "obj-A", buf)
		if err != nil {
			return err
		}
		if n != uint64(len(data)) || !bytes.Equal(buf, data) {
			t.Errorf("read = %d bytes, equal=%v", n, bytes.Equal(buf, data))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadMissingObjectFails(t *testing.T) {
	e := newEnv(t)
	err := e.run(t, func(self *abt.ULT) error {
		_, err := e.client.ReadOp(self, e.srv.Addr(), "ghost", make([]byte, 8))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "no such object") {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteOpProduces12DiscreteSubCalls(t *testing.T) {
	// The paper's Figure 5 discovers 12 discrete SDSKV/BAKE calls per
	// mobject_write_op. Count nested origin-profile entries under the
	// mobject_write_op breadcrumb on the provider node.
	e := newEnv(t)
	if err := e.run(t, func(self *abt.ULT) error {
		return e.client.WriteOp(self, e.srv.Addr(), "obj-X", []byte("payload"))
	}); err != nil {
		t.Fatal(err)
	}
	e.srv.WaitIdle(2 * time.Second)
	time.Sleep(20 * time.Millisecond)

	parent := core.Breadcrumb(0).Push(RPCWriteOp)
	var calls uint64
	perRPC := map[string]uint64{}
	names := e.srv.Profiler().Names()
	for k, s := range e.srv.Profiler().OriginStats() {
		if k.BC.Parent() == parent {
			calls += s.Count
			if n, ok := names.Name(uint16(k.BC)); ok {
				perRPC[n] += s.Count
			}
		}
	}
	if calls != 12 {
		t.Fatalf("write_op produced %d sub-calls (%v), want 12", calls, perRPC)
	}
	// Structure: 3 BAKE calls + put/get/list mix on SDSKV.
	if perRPC["bake_create_rpc"] != 1 || perRPC["bake_write_rpc"] != 1 ||
		perRPC["bake_persist_rpc"] != 1 || perRPC["bake_get_size_rpc"] != 1 {
		t.Fatalf("bake call mix wrong: %v", perRPC)
	}
	if perRPC["sdskv_put_rpc"] != 5 || perRPC["sdskv_get_rpc"] != 2 ||
		perRPC["sdskv_list_keyvals_rpc"] != 1 {
		t.Fatalf("sdskv call mix wrong: %v", perRPC)
	}
}

func TestReadOpProduces4SubCalls(t *testing.T) {
	e := newEnv(t)
	if err := e.run(t, func(self *abt.ULT) error {
		if err := e.client.WriteOp(self, e.srv.Addr(), "obj-R", []byte("data")); err != nil {
			return err
		}
		_, err := e.client.ReadOp(self, e.srv.Addr(), "obj-R", make([]byte, 4))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e.srv.WaitIdle(2 * time.Second)
	time.Sleep(20 * time.Millisecond)

	parent := core.Breadcrumb(0).Push(RPCReadOp)
	var calls uint64
	for k, s := range e.srv.Profiler().OriginStats() {
		if k.BC.Parent() == parent {
			calls += s.Count
		}
	}
	if calls != 4 {
		t.Fatalf("read_op produced %d sub-calls, want 4", calls)
	}
}

func TestTraceContainsFullRequestStructure(t *testing.T) {
	// A single write_op trace must contain target events for all 12
	// sub-calls sharing the top-level request ID (the Figure 5 Gantt).
	e := newEnv(t)
	if err := e.run(t, func(self *abt.ULT) error {
		return e.client.WriteOp(self, e.srv.Addr(), "obj-T", []byte("x"))
	}); err != nil {
		t.Fatal(err)
	}
	e.srv.WaitIdle(2 * time.Second)

	var reqID uint64
	for _, ev := range e.cli.Profiler().TraceEvents() {
		if ev.Kind == core.EvOriginStart && ev.RPCName == RPCWriteOp {
			reqID = ev.RequestID
		}
	}
	if reqID == 0 {
		t.Fatal("no origin start event for write_op")
	}
	nested := 0
	for _, ev := range e.srv.Profiler().TraceEvents() {
		if ev.RequestID == reqID && ev.Kind == core.EvTargetStart && ev.RPCName != RPCWriteOp {
			nested++
		}
	}
	if nested != 12 {
		t.Fatalf("trace shows %d nested target starts, want 12", nested)
	}
}

func TestConcurrentClients(t *testing.T) {
	e := newEnv(t)
	const n = 8
	ults := make([]*abt.ULT, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		idx := i
		obj := string(rune('a' + i))
		ults[i] = e.cli.Run("w", func(self *abt.ULT) {
			errs[idx] = e.client.WriteOp(self, e.srv.Addr(), obj, []byte(obj))
		})
	}
	for i, u := range ults {
		u.Join(nil)
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
	}
	// All objects readable.
	err := e.run(t, func(self *abt.ULT) error {
		for i := 0; i < n; i++ {
			obj := string(rune('a' + i))
			buf := make([]byte, 1)
			if _, err := e.client.ReadOp(self, e.srv.Addr(), obj, buf); err != nil {
				return err
			}
			if buf[0] != obj[0] {
				t.Errorf("object %s read %q", obj, buf)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteOpCallpathGolden pins what a handler's nested forwards
// inherit: one write_op yields exactly these (event kind, RPC,
// breadcrumb) records — recorded at commit 0b629fd, before the request
// identity moved from ULT-local keys to the handler's Context — and all
// 52 of them carry the root's request ID.
func TestWriteOpCallpathGolden(t *testing.T) {
	golden := map[string]int{}
	for rpc, g := range map[string]struct {
		bc uint64
		n  int
	}{
		"mobject_write_op":       {0xed39, 1},
		"bake_create_rpc":        {0xed393a38, 1},
		"bake_write_rpc":         {0xed39f1ab, 1},
		"bake_persist_rpc":       {0xed391401, 1},
		"bake_get_size_rpc":      {0xed39528f, 1},
		"sdskv_put_rpc":          {0xed394377, 5},
		"sdskv_get_rpc":          {0xed395e90, 2},
		"sdskv_list_keyvals_rpc": {0xed39d565, 1},
	} {
		for _, kind := range []core.EventKind{core.EvOriginStart, core.EvTargetStart, core.EvTargetEnd, core.EvOriginEnd} {
			golden[fmt.Sprintf("%s %s %#x", kind, rpc, g.bc)] = g.n
		}
	}

	e := newEnv(t)
	if err := e.run(t, func(self *abt.ULT) error {
		return e.client.WriteOp(self, e.srv.Addr(), "obj-G", []byte("payload"))
	}); err != nil {
		t.Fatal(err)
	}
	e.srv.WaitIdle(2 * time.Second)

	got := map[string]int{}
	ids := map[uint64]int{}
	for _, evs := range [][]core.Event{e.cli.Profiler().TraceEvents(), e.srv.Profiler().TraceEvents()} {
		for _, ev := range evs {
			ids[ev.RequestID]++
			got[fmt.Sprintf("%s %s %#x", ev.Kind, ev.RPCName, ev.Breadcrumb)]++
		}
	}
	if !reflect.DeepEqual(got, golden) {
		t.Errorf("write_op events = %v\nwant %v", got, golden)
	}
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("request IDs = %v, want one non-zero ID on all events", ids)
	}
}

// opAllocs writes 64 objects over and over, then runs op on them until
// pools are warm and reports what one op costs the whole process.
func opAllocs(t *testing.T, op func(c *Client, self *abt.ULT, target, object string, buf []byte) error) float64 {
	t.Helper()
	if mercury.RaceEnabled {
		t.Skip("pooled records are dropped at random under the race detector")
	}
	e := newEnv(t)
	target := e.srv.Addr()
	data := make([]byte, 4096)
	var a float64
	if err := e.run(t, func(self *abt.ULT) error {
		var n int
		var ferr error
		names := make([]string, 64)
		for k := range names {
			names[k] = fmt.Sprintf("pin.%08d", k)
			if err := e.client.WriteOp(self, target, names[k], data); err != nil {
				return err
			}
		}
		one := func() {
			n++
			if err := op(e.client, self, target, names[n%len(names)], data); err != nil && ferr == nil {
				ferr = err
			}
		}
		for k := 0; k < 256; k++ {
			one()
		}
		a = testing.AllocsPerRun(500, one)
		return ferr
	}); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWriteOpAllocs pins one composed write — thirteen RPCs on one
// process, a bulk pull, three stores — at what its data costs: the BAKE
// region and its record, and the stores' amortised growth (the version
// marker outgrows its stored value on every rewrite). The RPC path itself
// (frames, handles, call records), the keys, the object name, the
// numbers put, the values two Gets read back and the listing add nothing:
// they live in the request's scratch, a pooled Listing and recycled
// frames.
func TestWriteOpAllocs(t *testing.T) {
	a := opAllocs(t, func(c *Client, self *abt.ULT, target, object string, data []byte) error {
		return c.WriteOp(self, target, object, data)
	})
	t.Logf("WriteOp: %.0f objects", a)
	if a > 4 {
		t.Errorf("WriteOp allocates %.0f objects, want <= 4", a)
	}
}

// TestReadOpAllocs pins one composed read — five RPCs, a listing and a
// bulk push — at no more than one object: nothing of the read is kept.
func TestReadOpAllocs(t *testing.T) {
	a := opAllocs(t, func(c *Client, self *abt.ULT, target, object string, buf []byte) error {
		n, err := c.ReadOp(self, target, object, buf)
		if err == nil && n != uint64(len(buf)) {
			err = fmt.Errorf("read %d of %d bytes", n, len(buf))
		}
		return err
	})
	t.Logf("ReadOp: %.0f objects", a)
	if a > 1 {
		t.Errorf("ReadOp allocates %.0f objects, want <= 1", a)
	}
}
