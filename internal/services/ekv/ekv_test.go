package ekv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/ssg"
)

const testGroup = "ekv"

type env struct {
	t      *testing.T
	fabric *na.Fabric
	root   *margo.Instance
	host   *ssg.Host
	group  *ssg.Group
	nodes  []*Node
	insts  []*margo.Instance
	cliIn  *margo.Instance
	cli    *Client
}

func newTestEnv(t *testing.T, nodes int) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	e := &env{t: t, fabric: f}
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
		e.addNode(retry)
	}
	// A server-mode client instance, so it receives pushed view deltas.
	e.cliIn, err = margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "cli", Name: "cli", Fabric: f, Retry: &retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.cli, err = NewClient(e.cliIn, e.root.Addr(), testGroup)
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

// addNode creates (but does not join) one more node process.
func (e *env) addNode(retry margo.RetryPolicy) *Node {
	e.t.Helper()
	i := len(e.insts)
	inst, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: fmt.Sprintf("kv%d", i),
		Name: fmt.Sprintf("ekv%d", i), Fabric: e.fabric, Retry: &retry,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	n, err := NewNode(inst, e.root.Addr(), testGroup)
	if err != nil {
		e.t.Fatal(err)
	}
	e.insts = append(e.insts, inst)
	e.nodes = append(e.nodes, n)
	return n
}

// joinAll joins nodes [from, to) to the group.
func (e *env) joinAll(from, to int) {
	e.t.Helper()
	for i := from; i < to; i++ {
		i := i
		e.runOn(e.insts[i], func(self *abt.ULT) error { return e.nodes[i].Join(self) })
	}
}

func (e *env) runOn(inst *margo.Instance, fn func(self *abt.ULT) error) {
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

func (e *env) run(fn func(self *abt.ULT) error) {
	e.t.Helper()
	e.runOn(e.cliIn, fn)
}

// settleAll waits until every live joined node has seen the group's
// current view and finished rebalancing it. (Settled alone is relative
// to the node's own newest ring: a node the last membership change has
// not reached yet is settled at the ring before it.)
func (e *env) settleAll(live []*Node) {
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

func testKey(i int) []byte   { return []byte(fmt.Sprintf("dataset/run%02d/event%06d", i%5, i)) }
func testValue(i int) []byte { return []byte(fmt.Sprintf("payload-%06d", i)) }

// verifyAll asserts every acked key reads back with its value.
func (e *env) verifyAll(nkeys int) {
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
	e := newTestEnv(t, 3)
	e.joinAll(0, 3)
	const nkeys = 300
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

// TestScaleOutMigratesKeys: join two more nodes after loading; the
// moving ranges must stream over, residual copies must be deleted, and
// every key must survive.
func TestScaleOutMigratesKeys(t *testing.T) {
	e := newTestEnv(t, 4)
	e.joinAll(0, 2)
	const nkeys = 400
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
// Size and region length are the sender's word. One past its 64-byte
// region, also when the descriptor claims the region is that long, must
// be refused with its size named, and before the receiver sizes its
// scratch by it: 64 MiB of Size was a 64 MiB allocation, and 2^63 a
// panic in the handler.
func TestMigratePushSizeIsCheckedBeforeItIsAllocated(t *testing.T) {
	e := newTestEnv(t, 2)
	sender := e.insts[1]
	region := sender.BulkCreate(make([]byte, 64))
	defer sender.BulkFree(region)
	for _, c := range []struct {
		size  uint64
		claim int // the region length the descriptor names
	}{
		{64 << 20, 64},
		{1 << 63, 64},
		{64 << 20, 64 << 20},
		{1 << 62, 1 << 62},
	} {
		size, bulk := c.size, region
		bulk.Mem.Len = c.claim
		args := migratePushArgs{Version: 1, NumPairs: 1, Bulk: bulk, Size: size}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		u := sender.Run("push", func(self *abt.ULT) {
			err = sender.Forward(self, e.insts[0].Addr(), RPCMigratePush, &args, nil)
		})
		if jerr := u.Join(nil); jerr != nil {
			t.Fatal(jerr)
		}
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(" %d bytes", size)) {
			t.Errorf("a %d-byte chunk in a 64-byte region: %v", size, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("refusing a %d-byte chunk allocated %d bytes", size, grew)
		}
	}
}

// TestDrainDuringRebalance is the satellite regression test: draining a
// node mid-migration must hand off its shards — including in-flight
// transfer residue — instead of stranding them. A fourth node joins
// (starting a rebalance) and one of the loaded nodes drains while that
// round is still running; every acked key must remain readable.
func TestDrainDuringRebalance(t *testing.T) {
	e := newTestEnv(t, 4)
	e.joinAll(0, 3)
	const nkeys = 500
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

// TestLossyLinkMigrationNoAckedLost is the satellite chaos test: a
// seeded fault plan drops and delays traffic on every link while the
// cluster scales from 2 to 4 nodes under a continuing write load. The
// bar: zero acked-then-lost ops — whatever the client saw acked must
// read back after the dust settles.
func TestLossyLinkMigrationNoAckedLost(t *testing.T) {
	e := newTestEnv(t, 4)
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
	e := newTestEnv(t, 2)
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
		_ = e.root.ForwardEx(self, e.cliIn.Addr(), "probe_put", mercury.Void{}, nil,
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
// donor's peer_get hit — the pair sits at a peer that has not declared
// the round settled — and the value the client gets back is its own. The
// hit is copied out of the donor's response frame into the owner's
// request scratch, and out of the owner's response frame into the
// client's memory; it must stay byte-equal through a thousand further
// forwards, which reuse (and in race builds poison) every frame it
// travelled in.
func TestReadThroughHitOutlivesItsFrames(t *testing.T) {
	e := newTestEnv(t, 2)
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
	if err := donor.db.Put(key, want); err != nil {
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
