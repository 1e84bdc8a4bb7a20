package sdskv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/kv"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/ssg"
)

// An elastic node is a provider with one database behind a dynamic
// membership plane. Nodes join an SSG group; every party routes keys
// with the same rendezvous ring over the group view (internal/kv.Ring),
// so a view change moves only the keys the ring says must move. Nodes
// react to pushed membership deltas by streaming the moving ranges to
// their new owners over the bulk path while dual-writing in-flight ops,
// so a scale-out or scale-in under load loses no acked operation
// (protocol in DESIGN.md §11). Clients put and get through the plain
// sdskv RPCs; the node-to-node migration protocol is four more.
const (
	RPCMigratePut  = "sdskv_migrate_put_rpc"
	RPCMigrateGet  = "sdskv_migrate_get_rpc"
	RPCMigratePush = "sdskv_migrate_push_rpc"
	RPCMigrateDone = "sdskv_migrate_done_rpc"
)

// Service-level PVARs. Registered through margo.RegisterServicePVar,
// they ride the same session plumbing as the library counters and
// surface in /metrics as symbiosys_pvar_elastic_*.
const (
	PVarKeysMigratedOut     = "elastic_keys_migrated_out"
	PVarKeysMigratedIn      = "elastic_keys_migrated_in"
	PVarMigrationsStarted   = "elastic_migrations_started"
	PVarMigrationsCompleted = "elastic_migrations_completed"
	PVarWrongRoutes         = "elastic_wrong_routes"
	PVarDualWrites          = "elastic_dual_writes"
	PVarReadThroughs        = "elastic_read_throughs"
)

// nodeDB is the id of a node's one database: the first its provider
// opens.
const nodeDB = 1

// migrateChunk pairs per bulk push while streaming a moving range.
const migrateChunk = 128

// roundRetryLimit bounds re-runs of a failing rebalance round before
// the node gives up and relies on residual grace serving + read-through
// for correctness.
const roundRetryLimit = 10

// peerPutArgs is a dual write: a client put a stale-routed node forwards
// to the key's owner, with the forwarding node's ring version.
type peerPutArgs struct {
	putArgs
	Version uint64
}

func (a *peerPutArgs) Proc(pr *mercury.Proc) error {
	a.putArgs.Proc(pr)
	pr.Uint64(&a.Version)
	return pr.Err()
}

// migratePushArgs ships one chunk of a moving range as a put_packed of
// the rebalance round (ring version) it belongs to.
type migratePushArgs struct {
	putPackedArgs
	Version uint64
}

func (a *migratePushArgs) Proc(pr *mercury.Proc) error {
	a.putPackedArgs.Proc(pr)
	pr.Uint64(&a.Version)
	return pr.Err()
}

// migrateDoneArgs is the round-settlement marker: the sender has
// finished streaming everything it owed for ring version Version.
// Every member sends one to every other member each round — including
// zero-key rounds — so receivers can retire their read-through fan-out.
type migrateDoneArgs struct {
	Version uint64
	From    string
}

func (a *migrateDoneArgs) Proc(pr *mercury.Proc) error {
	pr.Uint64(&a.Version)
	pr.String(&a.From)
	return pr.Err()
}

// Node is one elastic KV node: a provider and its one database, plus the
// membership agent and migration engine.
type Node struct {
	p     *Provider
	d     *database
	inst  *margo.Instance
	agent *ssg.Agent
	root  string
	group string

	// mu guards the routing state. It is never held across a Forward —
	// handlers snapshot under the lock, release, then act. The inbound
	// migration handlers (migrate put, migrate push) do hold it across
	// their local db writes: that orders them against Retire's
	// set-retiring, so a handoff can never slip in behind a retiring
	// node's final sweep and strand acked pairs.
	mu        sync.Mutex
	ring      *kv.Ring
	lastRound uint64            // newest ring version fully rebalanced
	doneFrom  map[string]uint64 // peer addr -> newest round it settled
	dirty     map[string]uint64 // key -> round of last direct/dual write here
	retiring  bool
	closed    bool

	sem    *abt.Semaphore // kicks the rebalance worker
	worker *abt.ULT

	// Lifetime counters, exported as service PVARs.
	keysOut      atomic.Uint64
	keysIn       atomic.Uint64
	migStarted   atomic.Uint64
	migCompleted atomic.Uint64
	wrongRoutes  atomic.Uint64
	dualWrites   atomic.Uint64
	readThroughs atomic.Uint64
}

// NewNode installs an elastic KV node on a Margo server: a provider
// with default costs whose one database is a "shardedmap". root is the
// address of the SSG host rooting the group; the node does not join
// until Join is called (so a cluster can start all processes before
// churning membership). The node hands its shards off automatically
// when its instance drains.
func NewNode(inst *margo.Instance, root, group string) (*Node, error) {
	agent, err := ssg.NewAgent(inst)
	if err != nil {
		return nil, err
	}
	p, err := RegisterProvider(inst, Config{})
	if err != nil {
		return nil, err
	}
	if _, err := p.OpenLocal("elastic-"+inst.Addr(), "shardedmap"); err != nil {
		return nil, err
	}
	d, _ := p.database(nodeDB)
	n := &Node{
		p: p, d: d, inst: inst, agent: agent, root: root, group: group,
		doneFrom: make(map[string]uint64),
		dirty:    make(map[string]uint64),
	}
	p.elastic = n
	handlers := map[string]margo.HandlerFunc{
		RPCMigratePut:  n.handleMigratePut,
		RPCMigrateGet:  func(ctx *margo.Context) { p.get(ctx, nil) },
		RPCMigratePush: n.handleMigratePush,
		RPCMigrateDone: n.handleMigrateDone,
	}
	for name, fn := range handlers {
		if err := inst.Register(name, fn); err != nil {
			return nil, err
		}
	}
	// Peer ops are idempotent (puts are last-writer-wins overwrites,
	// pushes are dirty-guarded snapshots), so timed-out forwards may be
	// re-issued by the margo retry machinery.
	if err := inst.RegisterClientIdempotent(RPCMigratePut, RPCMigrateGet, RPCMigratePush, RPCMigrateDone); err != nil {
		return nil, err
	}
	for _, pv := range []struct {
		name, desc string
		read       func() uint64
	}{
		{PVarKeysMigratedOut, "keys streamed out to new owners during rebalancing", n.keysOut.Load},
		{PVarKeysMigratedIn, "keys received from old owners during rebalancing", n.keysIn.Load},
		{PVarMigrationsStarted, "rebalance rounds started", n.migStarted.Load},
		{PVarMigrationsCompleted, "rebalance rounds completed", n.migCompleted.Load},
		{PVarWrongRoutes, "client ops redirected for routing with a stale view", n.wrongRoutes.Load},
		{PVarDualWrites, "stale-routed writes served locally and forwarded to the owner", n.dualWrites.Load},
		{PVarReadThroughs, "owner-side misses resolved by asking pending donors", n.readThroughs.Load},
	} {
		if err := inst.RegisterServicePVar(pv.name, pv.desc, pvar.ClassCounter, pv.read); err != nil {
			return nil, err
		}
	}
	n.sem = abt.NewSemaphore(1)
	n.sem.Acquire(nil) // start with zero permits: pure kick queue
	n.worker = inst.Run("elastic-rebalance", n.rebalanceLoop)
	n.agent.OnEvent(group, n.onEvent)
	inst.OnDrain(n.drainHook)
	return n, nil
}

// Addr returns the node's fabric address.
func (n *Node) Addr() string { return n.inst.Addr() }

// Len reports the local pair count (validation path).
func (n *Node) Len() int { return n.d.db.Len() }

// Settled reports whether the node has fully rebalanced its newest ring
// (a retired node is trivially settled — it owes nothing).
func (n *Node) Settled() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.retiring || n.closed {
		return true
	}
	return n.ring != nil && n.lastRound >= n.ring.Version()
}

// NodeStats is a snapshot of a node's lifetime migration counters.
type NodeStats struct {
	KeysMigratedOut     uint64
	KeysMigratedIn      uint64
	MigrationsStarted   uint64
	MigrationsCompleted uint64
	WrongRoutes         uint64
	DualWrites          uint64
	ReadThroughs        uint64
}

// Stats reports the node's migration counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		KeysMigratedOut:     n.keysOut.Load(),
		KeysMigratedIn:      n.keysIn.Load(),
		MigrationsStarted:   n.migStarted.Load(),
		MigrationsCompleted: n.migCompleted.Load(),
		WrongRoutes:         n.wrongRoutes.Load(),
		DualWrites:          n.dualWrites.Load(),
		ReadThroughs:        n.readThroughs.Load(),
	}
}

// Join enters the service group and installs the first ring.
func (n *Node) Join(self *abt.ULT) error {
	_, v, err := n.agent.Join(self, n.root, n.group)
	if err != nil {
		return err
	}
	n.applyView(v)
	return nil
}

// onEvent reacts to a pushed membership delta: install the new ring and
// kick the rebalance worker. Every delta carries the view it produced.
func (n *Node) onEvent(ev ssg.Event) {
	n.applyView(ev.View)
}

// applyView swaps in a ring built from a (possibly newer) view.
func (n *Node) applyView(v ssg.View) {
	n.mu.Lock()
	if n.retiring || n.closed || (n.ring != nil && v.Version <= n.ring.Version()) {
		n.mu.Unlock()
		return
	}
	n.ring = kv.NewRing(v.Version, v.Addrs())
	n.mu.Unlock()
	n.sem.Release()
}

// route snapshots the routing state for one request.
func (n *Node) route(key []byte) (owner string, version uint64, unsettled bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring == nil {
		return "", 0, false
	}
	owner = n.ring.Owner(key)
	version = n.ring.Version()
	// Unsettled: a rebalance round is pending or running, or the node is
	// shedding its shards. Stale-routed writes are served with a
	// dual-write during this window instead of being refused.
	unsettled = n.retiring || n.lastRound < version
	return owner, version, unsettled
}

// markDirty records, under mu, a direct or dual write landing at this
// node during an unsettled round, so a migrated snapshot of the same key
// cannot clobber it.
func (n *Node) markDirty(key []byte, version uint64) {
	if v, ok := n.dirty[string(key)]; !ok || version > v {
		n.dirty[string(key)] = version
	}
}

// pendingDonors lists peers that have not yet declared round `version`
// settled — an owner-side miss may still be in their residual state.
func (n *Node) pendingDonors(version uint64) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring == nil {
		return nil
	}
	var out []string
	for _, m := range n.ring.Members() {
		if m != n.inst.Addr() && n.doneFrom[m] < version {
			out = append(out, m)
		}
	}
	return out
}

// Client-facing rules. A stale-routed op the node does not serve is
// refused with an error reply: the Router routes again on any error.

// put stores a client put to d when this node owns the key. Mid-
// migration it also serves a stale-routed put rather than bounce the
// client: it stores it locally (residual grace for readers still routed
// here) and synchronously dual-writes it to the owner before acking, so
// the ack never depends on state only this node holds.
func (n *Node) put(ctx *margo.Context, d *database, in *putArgs) error {
	owner, version, unsettled := n.route(in.Key)
	self := n.inst.Addr()
	if owner != self && (owner == "" || !unsettled) {
		n.wrongRoutes.Add(1)
		return fmt.Errorf("wrong owner: ring version %d routes the key to %q", version, owner)
	}
	ctx.Compute(n.p.cfg.PutCostPerKey)
	if err := d.db.Put(in.Key, in.Value); err != nil {
		return err
	}
	if owner == self {
		if unsettled {
			n.mu.Lock()
			n.markDirty(in.Key, version)
			n.mu.Unlock()
		}
		return nil
	}
	if err := ctx.Forward(owner, RPCMigratePut, &peerPutArgs{putArgs: *in, Version: version}, nil); err != nil {
		// Owner unreachable: do not ack a write we may not be able to
		// hand off. The client refreshes its view and retries.
		n.wrongRoutes.Add(1)
		return fmt.Errorf("wrong owner: dual write to %q: %v", owner, err)
	}
	n.dualWrites.Add(1)
	return nil
}

// readThrough settles a local miss. Residual grace has already served a
// locally held value whatever the ring says, so stale-routed readers
// never stall on a handoff. A miss at a node that does not own the key
// is refused; an owner-side miss while donors are still streaming may be
// a pair in flight, so it reads through to every peer that has not
// settled this round yet, first hit wins. The hit is copied out of the
// peer's response frame into out.Value, the scratch the miss left empty.
func (n *Node) readThrough(ctx *margo.Context, key []byte, out *getResp) error {
	owner, version, _ := n.route(key)
	if owner != n.inst.Addr() {
		n.wrongRoutes.Add(1)
		return fmt.Errorf("wrong owner: ring version %d routes the key to %q", version, owner)
	}
	peer := getCalls.Get()
	defer getCalls.Put(peer)
	peer.in = getArgs{DBID: nodeDB, Key: key}
	for _, donor := range n.pendingDonors(version) {
		peer.out = getResp{Value: out.Value[:0]}
		if err := ctx.Forward(donor, RPCMigrateGet, &peer.in, &peer.out); err == nil && peer.out.Found {
			n.readThroughs.Add(1)
			*out = peer.out
			break
		}
	}
	return nil
}

// Peer handlers (migration protocol).

func (n *Node) handleMigratePut(ctx *margo.Context) {
	var in peerPutArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("sdskv: %v", err)
		return
	}
	// A retiring node refuses handoffs: accepting one after its final
	// sweep would strand the pair on a departing member while the sender
	// acks the client. The sender refuses the client instead.
	n.mu.Lock()
	if n.retiring || n.closed {
		n.mu.Unlock()
		ctx.RespondError("sdskv: node retiring")
		return
	}
	// A dual-written value is authoritative: apply and mark dirty so a
	// slower migrated snapshot of the same key is discarded. Both happen
	// under mu so they order against Retire's set-retiring.
	n.markDirty(in.Key, in.Version)
	err := n.d.db.Put(in.Key, in.Value)
	n.mu.Unlock()
	if err != nil {
		ctx.RespondError("sdskv: migrate put: %v", err)
		return
	}
	ctx.Respond(mercury.Void{})
}

func (n *Node) handleMigratePush(ctx *margo.Context) {
	call := packedCalls.Get()
	defer packedCalls.Put(call)
	in := &call.args
	if err := ctx.GetInput(in); err != nil {
		ctx.RespondError("sdskv: %v", err)
		return
	}
	batch, err := pullPacked(ctx, &in.putPackedArgs)
	if err != nil {
		ctx.RespondError("sdskv: migrate push: %v", err)
		return
	}
	defer batch.release()
	// Refuse the chunk outright when retiring: an ack here would let the
	// donor delete pairs this node is about to walk away from. The whole
	// apply runs under mu so it orders against Retire's set-retiring and
	// cannot land behind the retiring node's final sweep.
	n.mu.Lock()
	if n.retiring || n.closed {
		n.mu.Unlock()
		ctx.RespondError("sdskv: node retiring")
		return
	}
	applied := uint64(0)
	for i := range batch.Keys {
		// Dirty-guard: a key directly or dual-written here during this
		// round is newer than any snapshot a donor streamed.
		if n.dirty[string(batch.Keys[i])] >= in.Version {
			continue
		}
		if err = n.d.db.Put(batch.Keys[i], batch.Values[i]); err != nil {
			break
		}
		applied++
	}
	n.mu.Unlock()
	if err != nil {
		ctx.RespondError("sdskv: migrate apply: %v", err)
		return
	}
	n.keysIn.Add(applied)
	ctx.Respond(mercury.Void{})
}

func (n *Node) handleMigrateDone(ctx *margo.Context) {
	var in migrateDoneArgs
	if err := ctx.GetInput(&in); err != nil {
		ctx.RespondError("sdskv: %v", err)
		return
	}
	n.mu.Lock()
	if n.doneFrom[in.From] < in.Version {
		n.doneFrom[in.From] = in.Version
	}
	// Settlement: once every current peer has declared this round done,
	// no snapshot for it is still in flight — the dirty set for the
	// round can be dropped.
	if n.ring != nil {
		settled, version := true, n.ring.Version()
		for _, m := range n.ring.Members() {
			if m != n.inst.Addr() && n.doneFrom[m] < version {
				settled = false
				break
			}
		}
		if settled {
			for k, v := range n.dirty {
				if v <= version {
					delete(n.dirty, k)
				}
			}
		}
	}
	n.mu.Unlock()
	ctx.Respond(mercury.Void{})
}

// Rebalancing.

// rebalanceLoop is the migration engine: each kick re-runs rounds until
// the newest ring version is fully streamed and settled. A failing
// round (unreachable peer) is retried with backoff up to
// roundRetryLimit, then abandoned — residual grace serving and
// read-through keep the data reachable even when a handoff cannot
// complete.
func (n *Node) rebalanceLoop(self *abt.ULT) {
	attempts := 0
	for {
		n.sem.Acquire(self)
		for {
			n.mu.Lock()
			if n.closed || n.retiring {
				n.mu.Unlock()
				if n.closed {
					return
				}
				break
			}
			r := n.ring
			if r == nil || n.lastRound >= r.Version() {
				n.mu.Unlock()
				break
			}
			n.mu.Unlock()
			ok := n.runRound(self, r)
			if !ok {
				if attempts++; attempts < roundRetryLimit {
					self.Sleep(2 * time.Millisecond)
					continue
				}
			}
			n.mu.Lock()
			if n.lastRound < r.Version() {
				n.lastRound = r.Version()
			}
			n.mu.Unlock()
			attempts = 0
		}
	}
}

// runRound streams every locally held pair the ring assigns elsewhere
// to its owner, then broadcasts the round-done marker. Scanning repeats
// until a sweep finds nothing to move (writes landing mid-round are
// picked up by the next sweep). Reports whether the round fully
// succeeded.
func (n *Node) runRound(self *abt.ULT, r *kv.Ring) bool {
	n.migStarted.Add(1)
	for sweep := 0; sweep < 8; sweep++ {
		moved, err := n.sweepOnce(self, r)
		if err != nil {
			// A failed sweep means misplaced pairs may still sit here. Do
			// NOT claim the round done — owners would stop reading through
			// to us while we still hold their keys. The retry re-sweeps
			// first.
			return false
		}
		if moved == 0 {
			break
		}
	}
	// Round-done markers go to every member — even after a zero-key
	// round — so owners can retire their read-through fan-out to us.
	ok := true
	done := migrateDoneArgs{Version: r.Version(), From: n.inst.Addr()}
	for _, m := range r.Members() {
		if m == n.inst.Addr() {
			continue
		}
		if err := n.inst.Forward(self, m, RPCMigrateDone, &done, nil, margo.ForwardOpts{Timeout: time.Second}); err != nil {
			ok = false
		}
	}
	if ok {
		n.migCompleted.Add(1)
	}
	return ok
}

// sweepOnce scans the local store and streams one batch of misplaced
// pairs per destination, deleting local copies only after the
// destination acked the chunk. Returns how many pairs moved.
func (n *Node) sweepOnce(self *abt.ULT, r *kv.Ring) (int, error) {
	pairs, _, err := n.d.db.AppendList(nil, nil, nil, n.d.db.Len()+migrateChunk)
	if err != nil {
		return 0, err
	}
	byDest := make(map[string]*packedBatch)
	selfAddr := n.inst.Addr()
	for _, pr := range pairs {
		dest := r.Owner(pr.Key)
		if dest == selfAddr || dest == "" {
			continue
		}
		c := byDest[dest]
		if c == nil {
			c = &packedBatch{}
			byDest[dest] = c
		}
		c.Keys = append(c.Keys, pr.Key)
		c.Values = append(c.Values, pr.Value)
	}
	moved := 0
	for dest, all := range byDest {
		for off := 0; off < len(all.Keys); off += migrateChunk {
			end := min(off+migrateChunk, len(all.Keys))
			keys := all.Keys[off:end]
			if err := n.pushChunk(self, dest, r.Version(), keys, all.Values[off:end]); err != nil {
				return moved, err
			}
			// Acked: the destination holds the pairs (or newer dual-
			// written values). Drop the residual copies.
			for _, k := range keys {
				if _, err := n.d.db.Delete(k); err != nil {
					return moved, err
				}
			}
			moved += len(keys)
			n.keysOut.Add(uint64(len(keys)))
		}
	}
	return moved, nil
}

// pushChunk ships one chunk to dest's database over the bulk path, the
// way PutPacked ships a batch.
func (n *Node) pushChunk(self *abt.ULT, dest string, version uint64, keys, values [][]byte) error {
	call := packedCalls.Get()
	defer packedCalls.Put(call)
	call.args.DBID, call.args.Version = nodeDB, version
	return call.sendPairs(n.inst, self, dest, RPCMigratePush, keys, values, &call.args)
}

// Scale-in.

// Retire hands every locally held pair to the surviving members and
// leaves the group: the controlled scale-in path. After Retire the node
// owns no key: a put routed to it is dual-written outward or refused.
// Safe to call at most once; subsequent calls are no-ops.
func (n *Node) Retire(self *abt.ULT) error {
	n.mu.Lock()
	if n.retiring || n.closed {
		n.mu.Unlock()
		return nil
	}
	n.retiring = true
	r := n.ring
	var shrunk *kv.Ring
	var rest []string
	if r != nil && r.Has(n.inst.Addr()) {
		// Route by the survivor set immediately, atomically with the
		// retiring flag: our own view of the ring drops self before the
		// root even processes the leave, so no op routed here after this
		// point sees this node as owner — it dual-writes outward or
		// refuses instead.
		rest = make([]string, 0, r.Size()-1)
		for _, m := range r.Members() {
			if m != n.inst.Addr() {
				rest = append(rest, m)
			}
		}
		shrunk = kv.NewRing(r.Version()+1, rest)
		n.ring = shrunk
	}
	n.mu.Unlock()
	if shrunk == nil {
		return n.agent.Leave(self, n.root, n.group)
	}

	// Stream everything out. A failed sweep usually means a push target
	// itself left or began retiring after our snapshot — refresh the
	// membership from the root, recompute the survivor ring, and retry,
	// so cascaded scale-ins hand off along the live chain instead of
	// pushing at ghosts. Data is left behind only if survivors stay
	// persistently unreachable through every retry — the same bar a
	// crashed node sets, and the reason Drain invokes this while the
	// endpoint can still forward.
	var lastErr error
	failures := 0
	for attempt := 0; attempt < 10*roundRetryLimit; attempt++ {
		moved, err := n.sweepOnce(self, shrunk)
		if err == nil {
			lastErr = nil
			if moved == 0 {
				break
			}
			failures = 0
			continue
		}
		lastErr = err
		failures++
		if failures >= roundRetryLimit {
			break
		}
		if v, rerr := n.agent.Refresh(self, n.root, n.group); rerr == nil {
			rest = rest[:0]
			for _, m := range v.Addrs() {
				if m != n.inst.Addr() {
					rest = append(rest, m)
				}
			}
			if len(rest) > 0 {
				shrunk = kv.NewRing(v.Version+1, rest)
				n.mu.Lock()
				n.ring = shrunk
				n.mu.Unlock()
			}
		}
		self.Sleep(2 * time.Millisecond)
	}
	if lastErr != nil && n.Len() > 0 {
		// The handoff did not complete: keep group membership (and the
		// read-through path to us) alive rather than walking away with
		// acked pairs. The caller may retry or escalate.
		n.mu.Lock()
		n.retiring = false
		n.mu.Unlock()
		return lastErr
	}
	done := migrateDoneArgs{Version: shrunk.Version(), From: n.inst.Addr()}
	for _, m := range shrunk.Members() {
		_ = n.inst.Forward(self, m, RPCMigrateDone, &done, nil, margo.ForwardOpts{Timeout: time.Second})
	}
	if err := n.agent.Leave(self, n.root, n.group); err != nil && lastErr == nil {
		lastErr = err
	}
	return lastErr
}

// drainHook is the margo OnDrain hook: a node drained mid-migration
// hands off its shards (including any in-flight transfer residue)
// instead of stranding them. Runs on the draining goroutine; the
// handoff itself needs a ULT for its forwards.
func (n *Node) drainHook(ctx context.Context) error {
	var err error
	u := n.inst.Run("elastic-drain-handoff", func(self *abt.ULT) {
		err = n.Retire(self)
	})
	join := make(chan struct{})
	go func() { u.Join(nil); close(join) }()
	select {
	case <-join:
	case <-ctx.Done():
		return fmt.Errorf("sdskv: drain handoff interrupted: %w", ctx.Err())
	}
	n.stopWorker()
	return err
}

// stopWorker terminates the rebalance ULT.
func (n *Node) stopWorker() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.sem.Release()
	n.worker.Join(nil)
}

// Close stops the rebalance worker and the local store. The margo
// instance is not touched.
func (n *Node) Close() error {
	n.stopWorker()
	return n.d.db.Close()
}
