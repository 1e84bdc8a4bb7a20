package sdskv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/ssg"
)

const testGroup = "elastic"

// cluster is an elastic group: an SSG root, nodes, and a server-mode
// client instance (so it receives pushed view deltas) with a Router.
type cluster struct {
	t      *testing.T
	fabric *na.Fabric
	root   *margo.Instance
	host   *ssg.Host
	group  *ssg.Group
	nodes  []*Node
	insts  []*margo.Instance
	cliIn  *margo.Instance
	cli    *Router
}

func newCluster(t *testing.T, nodes int) *cluster {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	e := &cluster{t: t, fabric: f}
	var err error
	e.root, err = margo.New(margo.Options{Mode: margo.ModeServer, Node: "root", Name: "root", Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	e.host, err = ssg.NewHost(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if e.group, err = e.host.Create(testGroup, false); err != nil {
		t.Fatal(err)
	}
	// A snappier policy than the default: dropped messages under the
	// lossy-link plan should time out in tens of milliseconds, not the
	// default 1s per try, so chaos runs stay fast.
	retry := margo.DefaultRetryPolicy()
	retry.MaxAttempts = 6
	retry.PerTryTimeout = 75 * time.Millisecond
	retry.InitialBackoff = 2 * time.Millisecond
	for i := 0; i < nodes; i++ {
		inst, err := margo.New(margo.Options{
			Mode: margo.ModeServer, Node: fmt.Sprintf("kv%d", i),
			Name: fmt.Sprintf("elastic%d", i), Fabric: f, Retry: &retry,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(inst, e.root.Addr(), testGroup)
		if err != nil {
			t.Fatal(err)
		}
		e.insts = append(e.insts, inst)
		e.nodes = append(e.nodes, n)
	}
	e.cliIn, err = margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "cli", Name: "cli", Fabric: f, Retry: &retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.cli, err = NewRouter(e.cliIn, e.root.Addr(), testGroup)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, n := range e.nodes {
			n.Close()
		}
		for _, in := range e.insts {
			in.Shutdown()
		}
		e.cliIn.Shutdown()
		e.host.Close()
		e.root.Shutdown()
	})
	return e
}

// joinAll joins nodes [from, to) to the group.
func (e *cluster) joinAll(from, to int) {
	e.t.Helper()
	for i := from; i < to; i++ {
		e.runOn(e.insts[i], func(self *abt.ULT) error { return e.nodes[i].Join(self) })
	}
}

func (e *cluster) runOn(inst *margo.Instance, fn func(self *abt.ULT) error) {
	e.t.Helper()
	var err error
	u := inst.Run("t", func(self *abt.ULT) { err = fn(self) })
	if jerr := u.Join(nil); jerr != nil {
		e.t.Fatal(jerr)
	}
	if err != nil {
		e.t.Fatal(err)
	}
}

func (e *cluster) run(fn func(self *abt.ULT) error) {
	e.t.Helper()
	e.runOn(e.cliIn, fn)
}

// settleAll waits until every live joined node has seen the group's
// current view and finished rebalancing it. (Settled alone is relative
// to the node's own newest ring: a node the last membership change has
// not reached yet is settled at the ring before it.)
func (e *cluster) settleAll(live []*Node) {
	e.t.Helper()
	current := e.group.View().Version
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		allDone := true
		for _, n := range live {
			n.mu.Lock()
			behind := !n.retiring && !n.closed && (n.ring == nil || n.ring.Version() < current)
			n.mu.Unlock()
			if behind || !n.Settled() {
				allDone = false
				break
			}
		}
		if allDone {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.t.Fatal("cluster did not settle")
}

// load attaches the router and puts keys [0, nkeys) through it.
func (e *cluster) load(nkeys int) {
	e.t.Helper()
	e.run(func(self *abt.ULT) error {
		if err := e.cli.Attach(self); err != nil {
			return err
		}
		for i := 0; i < nkeys; i++ {
			if err := e.cli.Put(self, testKey(i), testValue(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

func testKey(i int) []byte   { return []byte(fmt.Sprintf("dataset/run%02d/event%06d", i%5, i)) }
func testValue(i int) []byte { return []byte(fmt.Sprintf("payload-%06d", i)) }

// verifyAll asserts every acked key reads back with its value.
func (e *cluster) verifyAll(nkeys int) {
	e.t.Helper()
	e.run(func(self *abt.ULT) error {
		if err := e.cli.Refresh(self); err != nil {
			return err
		}
		for i := 0; i < nkeys; i++ {
			v, found, err := e.cli.Get(self, testKey(i))
			if err != nil {
				return fmt.Errorf("get %d: %w", i, err)
			}
			if !found {
				return fmt.Errorf("acked key %q lost", testKey(i))
			}
			if string(v) != string(testValue(i)) {
				return fmt.Errorf("key %q = %q, want %q", testKey(i), v, testValue(i))
			}
		}
		return nil
	})
}

// TestRoutingAndSpread: basic routing — every node ends up owning part
// of the keyspace, every key reads back.
func TestRoutingAndSpread(t *testing.T) {
	e := newCluster(t, 3)
	e.joinAll(0, 3)
	const nkeys = 300
	e.load(nkeys)
	e.settleAll(e.nodes)
	total := 0
	for _, n := range e.nodes {
		if n.Len() == 0 {
			t.Errorf("node %s owns no keys", n.Addr())
		}
		total += n.Len()
	}
	if total != nkeys {
		t.Errorf("cluster holds %d pairs, want %d", total, nkeys)
	}
	e.verifyAll(nkeys)
}

// TestRoutedPairsAreTheNodesDatabase: the elastic store is sdskv. Pairs
// written through the Router are read back by a plain Client, with Get
// at the owner and with ListKeyvals over every node's database, which
// between them list each pair exactly once.
func TestRoutedPairsAreTheNodesDatabase(t *testing.T) {
	e := newCluster(t, 3)
	e.joinAll(0, 3)
	e.settleAll(e.nodes)
	const nkeys = 200
	e.load(nkeys)
	plain, err := NewClient(e.cliIn)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	e.run(func(self *abt.ULT) error {
		var l Listing
		for _, n := range e.nodes {
			if err := plain.ListKeyvals(self, n.Addr(), nodeDB, nil, nkeys+1, &l); err != nil {
				return err
			}
			for i, k := range l.Keys {
				if _, dup := listed[string(k)]; dup {
					return fmt.Errorf("key %q listed by two nodes", k)
				}
				listed[string(k)] = string(l.Values[i])
				v, found, err := plain.Get(self, n.Addr(), nodeDB, k)
				if err != nil || !found || !bytes.Equal(v, l.Values[i]) {
					return fmt.Errorf("plain get %q at %s = %q, found %v, %v", k, n.Addr(), v, found, err)
				}
			}
		}
		return nil
	})
	if len(listed) != nkeys {
		t.Errorf("the nodes' databases list %d pairs, want %d", len(listed), nkeys)
	}
	for i := 0; i < nkeys; i++ {
		if got := listed[string(testKey(i))]; got != string(testValue(i)) {
			t.Errorf("key %q listed as %q, want %q", testKey(i), got, testValue(i))
		}
	}
}

// TestScaleOutMigratesKeys: join two more nodes after loading; the
// moving ranges must stream over, residual copies must be deleted, and
// every key must survive.
func TestScaleOutMigratesKeys(t *testing.T) {
	e := newCluster(t, 4)
	e.joinAll(0, 2)
	const nkeys = 400
	e.load(nkeys)
	e.joinAll(2, 4)
	e.settleAll(e.nodes)

	var out, in uint64
	total := 0
	for i, n := range e.nodes {
		total += n.Len()
		out += n.keysOut.Load()
		in += n.keysIn.Load()
		if i >= 2 && n.Len() == 0 {
			t.Errorf("joined node %s received no keys", n.Addr())
		}
	}
	if total != nkeys {
		t.Errorf("cluster holds %d pairs after scale-out, want %d (residuals not deleted?)", total, nkeys)
	}
	if out == 0 || in == 0 {
		t.Errorf("no migration recorded: out=%d in=%d", out, in)
	}
	e.verifyAll(nkeys)
}

// TestMigratePushSizeIsCheckedBeforeItIsAllocated: a migrate chunk's
// Size, NumKeys and region length are the sending node's word. One past
// its 64-byte region, also when the descriptor claims the region is that
// long, must be refused with its size named, and before the receiver
// sizes its scratch by it: 64 MiB of Size was a 64 MiB allocation, and
// 2^63 a panic in the handler.
func TestMigratePushSizeIsCheckedBeforeItIsAllocated(t *testing.T) {
	checkOversizedPacksRefused(t, RPCMigratePush, func(args putPackedArgs) mercury.Procable {
		return &migratePushArgs{putPackedArgs: args, Version: 1}
	})
}

// TestDrainDuringRebalance: draining a node mid-migration must hand off
// its shards — including in-flight transfer residue — instead of
// stranding them. A fourth node joins (starting a rebalance) and one of
// the loaded nodes drains while that round is still running; every acked
// key must remain readable.
func TestDrainDuringRebalance(t *testing.T) {
	e := newCluster(t, 4)
	e.joinAll(0, 3)
	const nkeys = 500
	e.load(nkeys)
	// Kick a rebalance (node 3 joins) and drain node 1 while the round
	// runs. Drain's OnDrain hook must retire the node: stream every
	// local pair to its surviving owner, then leave the group.
	e.joinAll(3, 4)
	victim := e.insts[1]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := victim.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := e.nodes[1].Len(); n != 0 {
		t.Errorf("drained node still holds %d pairs", n)
	}
	live := []*Node{e.nodes[0], e.nodes[2], e.nodes[3]}
	e.settleAll(live)
	total := 0
	for _, n := range live {
		total += n.Len()
	}
	if total != nkeys {
		t.Errorf("survivors hold %d pairs, want %d", total, nkeys)
	}
	e.verifyAll(nkeys)
}

// TestLossyLinkMigrationNoAckedLost: a seeded fault plan drops and
// delays traffic on every link while the cluster scales from 2 to 4
// nodes under a continuing write load. The bar: zero acked-then-lost
// ops — whatever the client saw acked must read back after the dust
// settles.
func TestLossyLinkMigrationNoAckedLost(t *testing.T) {
	e := newCluster(t, 4)
	e.joinAll(0, 2)

	plan := na.NewFaultPlan(1234)
	plan.Default = na.FaultRule{
		DropProb:  0.02,
		DelayProb: 0.05,
		Delay:     2 * time.Millisecond,
	}
	e.fabric.SetFaultPlan(plan)

	const nkeys = 400
	acked := 0
	e.run(func(self *abt.ULT) error {
		if err := e.cli.Attach(self); err != nil {
			return err
		}
		for i := 0; i < nkeys; i++ {
			// Scale out mid-load: the second half of the writes lands
			// while the moving ranges stream under the lossy plan.
			if i == nkeys/2 {
				e.joinAll(2, 4)
			}
			if err := e.cli.Put(self, testKey(i), testValue(i)); err != nil {
				return fmt.Errorf("put %d under faults: %w", i, err)
			}
			acked++
		}
		return nil
	})
	if acked != nkeys {
		t.Fatalf("acked %d of %d puts", acked, nkeys)
	}
	e.settleAll(e.nodes)
	// Heal the fabric for the audit so a dropped response cannot mask a
	// truly stored pair as lost (the audit checks state, not the link).
	e.fabric.SetFaultPlan(nil)
	if e.fabric.FaultStats().Drops == 0 {
		t.Error("fault plan injected no drops — test exercised nothing")
	}
	e.verifyAll(nkeys)
}

// TestRoutingEndsAtItsDeadline: with every owner unreachable and the
// membership unchanged there is no newer view to route with, ever. The
// op keeps routing — well past the eight attempts it used to be allowed
// — until the deadline of the request it is issued under, and fails
// with a deadline error that names the view it was left with.
func TestRoutingEndsAtItsDeadline(t *testing.T) {
	e := newCluster(t, 2)
	e.joinAll(0, 2)
	e.run(func(self *abt.ULT) error { return e.cli.Attach(self) })
	plan := na.NewFaultPlan(1)
	for _, in := range e.insts {
		plan.PartitionOneWay(e.cliIn.Addr(), in.Addr())
	}
	e.fabric.SetFaultPlan(plan)

	var putErr error
	done := make(chan struct{})
	if err := e.cliIn.Register("probe_put", func(ctx *margo.Context) {
		putErr = e.cli.Put(ctx.Self, []byte("k"), []byte("v"))
		ctx.Respond(mercury.Void{})
		close(done)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.root.RegisterClient("probe_put"); err != nil {
		t.Fatal(err)
	}
	before := e.cli.Redirects()
	start := time.Now()
	u := e.root.Run("probe", func(self *abt.ULT) {
		// The caller's own wait ends at the same deadline; what the
		// handler's Put returned is read once the handler is done.
		_ = e.root.Forward(self, e.cliIn.Addr(), "probe_put", mercury.Void{}, nil,
			margo.ForwardOpts{Deadline: start.Add(1500 * time.Millisecond)})
	})
	if err := u.Join(nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Put still routing 5s after its 1.5s deadline")
	}
	if !errors.Is(putErr, margo.ErrDeadlineExceeded) || !strings.Contains(putErr.Error(), "last view version") {
		t.Fatalf("Put = %v, want a deadline error naming the last view version", putErr)
	}
	if took := time.Since(start); took < time.Second || took > 4*time.Second {
		t.Errorf("Put gave up after %v, want about its 1.5s deadline", took)
	}
	if n := e.cli.Redirects() - before; n <= 8 {
		t.Errorf("%d routing attempts before the deadline, want more than the old cap of 8", n)
	}
}

// TestReadThroughHitOutlivesItsFrames: an owner-side miss is served by a
// donor's peer get hit — the pair sits at a peer that has not declared
// the round settled — and the value the client gets back is its own. The
// hit is copied out of the donor's response frame into the owner's
// request scratch, and out of the owner's response frame into the
// client's memory; it must stay byte-equal through a thousand further
// forwards, which reuse (and in race builds poison) every frame it
// travelled in.
func TestReadThroughHitOutlivesItsFrames(t *testing.T) {
	e := newCluster(t, 2)
	e.joinAll(0, 2)
	e.settleAll(e.nodes)
	owner, donor := e.nodes[0], e.nodes[1]
	var key []byte
	for i := 0; key == nil; i++ {
		if o, _, _ := owner.route(testKey(i)); o == owner.Addr() {
			key = testKey(i)
		}
	}
	want := bytes.Repeat([]byte("pair-still-at-its-donor/"), 12)
	if err := donor.d.db.Put(key, want); err != nil {
		t.Fatal(err)
	}
	owner.mu.Lock()
	owner.doneFrom[donor.Addr()] = 0 // the donor has not settled this round
	owner.mu.Unlock()

	e.run(func(self *abt.ULT) error {
		if err := e.cli.Attach(self); err != nil {
			return err
		}
		got, found, err := e.cli.Get(self, key)
		if err != nil || !found || !bytes.Equal(got, want) {
			return fmt.Errorf("get = %q, found %v, %v; want %q", got, found, err, want)
		}
		for i := 0; i < 1000; i++ {
			if _, _, err := e.cli.Get(self, testKey(1000+i)); err != nil {
				return err
			}
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("the read-through value changed over 1000 further forwards: %q", got)
		}
		return nil
	})
	if owner.Stats().ReadThroughs == 0 {
		t.Fatal("the owner answered the miss without reading through to the donor")
	}
}

// migrateWire are the messages elastic nodes send each other that no
// other target fuzzes (a migrate push's payload is a packedBatch), each
// with the offset of its Bool byte (-1 for none): the one field a
// decoder reads laxly (any non-zero byte is true) and an encoder writes
// canonically (1). The get reply copies its value out of the frame; the
// rest decode views.
var migrateWire = []struct {
	name   string
	fresh  func() mercury.Procable
	boolAt int
	copies bool
}{
	{"peerPutArgs", func() mercury.Procable { return new(peerPutArgs) }, -1, false},
	{"getArgs", func() mercury.Procable { return new(getArgs) }, -1, false},
	{"getResp", func() mercury.Procable { return new(getResp) }, 0, true},
	{"migratePushArgs", func() mercury.Procable { return new(migratePushArgs) }, -1, false},
	{"migrateDoneArgs", func() mercury.Procable { return new(migrateDoneArgs) }, -1, false},
}

// byteFields collects every []byte a decoded message holds.
func byteFields(v reflect.Value, out [][]byte) [][]byte {
	switch v.Kind() {
	case reflect.Pointer:
		return byteFields(v.Elem(), out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = byteFields(v.Field(i), out)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(out, v.Bytes())
		}
		for i := 0; i < v.Len(); i++ {
			out = byteFields(v.Index(i), out)
		}
	}
	return out
}

// FuzzMigrateWire feeds arbitrary bytes to the decoder of every message
// of the migration protocol (peer put, peer get and its reply, migrate
// push, migrate done), whose frames arrive from peer nodes: a decoder
// must not panic, what it accepts must be views clipped inside the frame
// (for a reply, copies outside it: the frame is recycled before Forward
// returns), and must encode back to the bytes it consumed (a lax Bool
// byte aside) and decode again to the same message. Seeds:
// testdata/fuzz/FuzzMigrateWire.
func FuzzMigrateWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		for _, wt := range migrateWire {
			got := wt.fresh()
			if mercury.Decode(data, got) != nil {
				continue
			}
			for _, v := range byteFields(reflect.ValueOf(got), nil) {
				p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
				inside := p >= lo && p+uintptr(len(v)) <= lo+uintptr(len(data))
				switch {
				case len(v) == 0:
				case wt.copies && p < lo+uintptr(len(data)) && p+uintptr(len(v)) > lo:
					t.Fatalf("%s: decoded field %q shares memory with the frame", wt.name, v)
				case !wt.copies && (cap(v) != len(v) || !inside):
					t.Fatalf("%s: decoded field %q is not a clipped view of the frame", wt.name, v)
				}
			}
			wire, err := mercury.Encode(got)
			if err != nil || len(wire) > len(data) {
				t.Fatalf("%s: re-encode = %x, %v; want a prefix of %x", wt.name, wire, err, data)
			}
			consumed := append([]byte(nil), data[:len(wire)]...)
			if wt.boolAt >= 0 && consumed[wt.boolAt] != 0 {
				consumed[wt.boolAt] = 1
			}
			if !bytes.Equal(wire, consumed) {
				t.Fatalf("%s: re-encode = %x; want the consumed prefix %x", wt.name, wire, consumed)
			}
			again := wt.fresh()
			if err := mercury.Decode(wire, again); err != nil || !reflect.DeepEqual(got, again) {
				t.Fatalf("%s: second decode = %+v, %v; want %+v", wt.name, again, err, got)
			}
		}
	})
}
